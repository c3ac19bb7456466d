"""Gaussian-state engine for two-polarization-mode light pulses.

Conventions used throughout the package:

* Quadrature ordering is xpxp: the mean vector is (x1, p1, x2, p2, ...) and
  the covariance matrix follows the same ordering.
* Vacuum quadrature variance is 1/2, so a coherent state of amplitude
  ``alpha`` has mean components (sqrt(2) Re alpha, sqrt(2) Im alpha) and
  covariance I/2.
* The photon number of mode j is n_j = (x_j^2 + p_j^2 - 1) / 2.
* Transmission t is the fraction of a pulse that goes on. ``eta`` is the
  *lost* fraction (t = 1 - eta) in ``apply_loss`` and Bob's error curve,
  Eve's diverted fraction in ``tap_split`` and ``attacks.tap_arms``, and
  Eve's transmission in ``photostats.eve_tap_curve`` (fig3's column).

All states are immutable; every operation returns a new state.
"""

from __future__ import annotations

import enum
import functools
import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

from .laws import solve_gain_squeeze

_SYMMETRY_GUARD = 64  # multiples of eps * |cov| tolerated before symmetrizing

# Phase theta of Alice's two-mode squeeze. With the seed's pi/2 phase between
# alpha_V and alpha_H it aligns pump and seed so the pulse is amplified; the
# gain solve and every closed form in the package assume it.
PUMP_PHASE = math.pi / 2


class Basis(enum.Enum):
    """Measurement basis for the photon difference number."""

    VH = "VH"
    DIAG = "DIAG"


def symplectic_form(num_modes: int) -> np.ndarray:
    """Block-diagonal symplectic form with per-mode blocks [[0,1],[-1,0]]."""
    j = np.array([[0.0, 1.0], [-1.0, 0.0]])
    return np.kron(np.eye(num_modes), j)


@dataclass(frozen=True, eq=False)
class GaussianState:
    """Gaussian state of labelled bosonic modes.

    ``cov`` is the symmetrized covariance matrix; it is re-symmetrized on
    construction so the stored matrix is exactly symmetric. States compare
    by identity; compare contents through ``mean`` and ``cov`` directly.
    """

    mode_labels: tuple[str, ...]
    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self) -> None:
        mean = np.array(self.mean, dtype=float)
        cov = np.array(self.cov, dtype=float)
        dim = 2 * len(self.mode_labels)
        if mean.shape != (dim,):
            raise ValueError(f"mean has shape {mean.shape}, expected ({dim},)")
        if cov.shape != (dim, dim):
            raise ValueError(f"cov has shape {cov.shape}, expected ({dim}, {dim})")
        scale = max(float(np.max(np.abs(cov))), 1.0)  # a NaN stays: nothing compares larger
        if not (math.isfinite(scale) and math.isfinite(float(np.max(np.abs(mean))))):
            raise ValueError("mean and cov must be finite")
        asym = float(np.max(np.abs(cov - cov.T)))
        if asym > _SYMMETRY_GUARD * np.finfo(float).eps * scale:
            raise ValueError(f"cov is not symmetric (max asymmetry {asym:.3e})")
        cov = 0.5 * (cov + cov.T)
        mean.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "mode_labels", tuple(self.mode_labels))
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def num_modes(self) -> int:
        return len(self.mode_labels)

    def symplectic_eigenvalues(self) -> np.ndarray:
        """Symplectic spectrum; every value is >= 1/2 for a physical state."""
        omega = symplectic_form(self.num_modes)
        ev = np.linalg.eigvals(omega @ self.cov)
        nus = np.sort(np.abs(ev))
        return nus[::2]  # each value appears twice as +/- i nu

    def validate_physical(self) -> None:
        """Check the uncertainty principle cov + (i/2) Omega >= 0.

        The tolerance is 1e-9 widened by the eigensolver's own accuracy
        limit for large covariance scales.
        """
        scale = max(1.0, float(np.max(np.abs(self.cov))))
        tol = max(1e-9, 32 * np.finfo(float).eps * scale)
        nu_min = float(np.min(self.symplectic_eigenvalues()))
        if nu_min < 0.5 - tol:
            raise ValueError(f"state is unphysical: min symplectic eigenvalue {nu_min}")

    def marginal(self, labels: tuple[str, ...]) -> "GaussianState":
        """Reduced state of a subset of modes (partial trace over the rest)."""
        idx = []
        for lab in labels:
            if lab not in self.mode_labels:
                raise ValueError(f"unknown mode label {lab!r}")
            k = self.mode_labels.index(lab)
            idx.extend([2 * k, 2 * k + 1])
        idx_arr = np.array(idx)
        return GaussianState(labels, self.mean[idx_arr], self.cov[np.ix_(idx_arr, idx_arr)])


@dataclass(frozen=True)
class SourceParams:
    """Design of Alice's pulse.

    ``gain_G`` is the photon-number gain of the amplifier, ``n_total_amp``
    the target mean total photon number of the amplified pulse, and
    ``bit_amplitude_N`` the magnitude of the mean photon difference number
    encoding one bit.
    """

    gain_G: float
    n_total_amp: float
    bit_amplitude_N: float

    def __post_init__(self) -> None:
        problems = source_param_violations(self.gain_G, self.n_total_amp, self.bit_amplitude_N)
        if problems:
            raise ValueError("; ".join(problems))

    @property
    def n_total_seed(self) -> float:
        return self.n_total_amp / self.gain_G


def is_number(value: object, integral: bool = False) -> bool:
    """Whether ``value`` is a real number (an integer with ``integral``) and
    not a bool: a config's true and false are not numbers."""
    kind = numbers.Integral if integral else numbers.Real
    return isinstance(value, kind) and not isinstance(value, bool)


def source_param_violations(gain_g: float, n_total_amp: float, bit_amplitude_n: float) -> list[str]:
    """All constraint violations of a prospective SourceParams, as messages."""
    out = []
    # an integer past the float range is not finite either: it has no float
    gain_ok = is_number(gain_g) and 1 < gain_g <= sys.float_info.max
    total_ok = is_number(n_total_amp) and 0 < n_total_amp <= sys.float_info.max
    if not gain_ok:
        out.append(f"gain_G must be finite and > 1 (got {gain_g!r})")
    if not total_ok:
        out.append(f"n_total_amp must be finite and > 0 (got {n_total_amp!r})")
    bound = n_total_amp / gain_g if gain_ok and total_ok else math.inf
    if not (is_number(bit_amplitude_n) and 0 < bit_amplitude_n < bound):
        out.append(
            f"bit_amplitude_N must lie in (0, n_total_amp/gain_G) "
            f"(got {bit_amplitude_n!r}, bound {bound})"
        )
    return out


def make_coherent_seed(alpha_v: complex, alpha_h: complex) -> GaussianState:
    """Two-mode coherent state |alpha_V, alpha_H> on modes (V, H)."""
    alpha_v = complex(alpha_v)
    alpha_h = complex(alpha_h)
    mean = np.array(
        [
            math.sqrt(2) * alpha_v.real,
            math.sqrt(2) * alpha_v.imag,
            math.sqrt(2) * alpha_h.real,
            math.sqrt(2) * alpha_h.imag,
        ]
    )
    return GaussianState(("V", "H"), mean, 0.5 * np.eye(4))


def squeeze_symplectic(r: float, theta: float) -> np.ndarray:
    """Symplectic matrix of the two-mode squeeze a_V -> mu a_V + nu a_H^dag.

    mu = cosh r and nu = e^{i theta} sinh r, so |mu|^2 - |nu|^2 = 1.
    """
    c, s = math.cosh(r), math.sinh(r)
    a = np.array(
        [
            [math.cos(theta), math.sin(theta)],
            [math.sin(theta), -math.cos(theta)],
        ]
    )
    return np.block([[c * np.eye(2), s * a], [s * a, c * np.eye(2)]])


def rotation_symplectic(phi: float) -> np.ndarray:
    """Symplectic matrix of the polarization rotation by phi.

    Acts as a_V -> cos(phi) a_V + sin(phi) a_H identically on the x and p
    blocks; a coherent state (alpha, 0) maps to (alpha cos phi, -alpha sin phi).
    """
    c, s = math.cos(phi), math.sin(phi)
    return np.block([[c * np.eye(2), s * np.eye(2)], [-s * np.eye(2), c * np.eye(2)]])


def _transformed(state: GaussianState, s: np.ndarray) -> GaussianState:
    return GaussianState(state.mode_labels, s @ state.mean, s @ state.cov @ s.T)


def apply_two_mode_squeeze(state: GaussianState, r: float, theta: float) -> GaussianState:
    """Two-mode squeezing (parametric amplification) of a two-mode state."""
    if r < 0:
        raise ValueError(f"squeeze parameter r must be >= 0 (got {r})")
    if state.num_modes != 2:
        raise ValueError("two-mode squeeze requires exactly two modes")
    return _transformed(state, squeeze_symplectic(r, theta))


def apply_rotation(state: GaussianState, phi: float) -> GaussianState:
    """Polarization rotation of a two-mode state by angle phi."""
    if state.num_modes != 2:
        raise ValueError("rotation requires exactly two modes")
    return _transformed(state, rotation_symplectic(phi))


@functools.lru_cache(maxsize=256)
def apply_loss(state: GaussianState, eta: float) -> GaussianState:
    """Non-polarizing loss of a fraction eta of the pulse (all modes).

    Memoized on (state identity, eta): states are immutable, and the
    single-pulse reference and its tests send the same pulses through the
    same loss per pulse; the benchmark's ``CACHED`` list reads its hit ratio.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"loss fraction eta must be in [0, 1] (got {eta})")
    t = 1.0 - eta
    dim = 2 * state.num_modes
    return GaussianState(
        state.mode_labels,
        math.sqrt(t) * state.mean,
        t * state.cov + eta * 0.5 * np.eye(dim),
    )


@functools.lru_cache(maxsize=256)
def tap_split(state: GaussianState, eta: float) -> GaussianState:
    """Split a two-mode pulse on a non-polarizing beamsplitter.

    A fraction ``eta`` of the pulse is diverted to the tap (Eve) modes and
    1 - eta continues to the transmitted (Bob) modes. The output is the
    joint four-mode state on labels (V_B, H_B, V_E, H_E); Bob's marginal
    equals ``apply_loss(state, eta)`` and Eve's equals
    ``apply_loss(state, 1 - eta)`` exactly.
    """
    if not 0.0 < eta < 1.0:
        raise ValueError(f"tap fraction eta must be in (0, 1) (got {eta})")
    if state.num_modes != 2:
        raise ValueError("tap_split requires exactly two modes")
    t = math.sqrt(1.0 - eta)
    e = math.sqrt(eta)
    # Modes in: (V, H, anc_V, anc_H) with vacuum ancillas; out: (V_B, H_B,
    # V_E, H_E). Per quadrature: out_B = t*in + e*anc, out_E = e*in - t*anc;
    # + 0.0 turns kron's -0.0 entries into +0.0.
    labels = tuple(f"{lab}_{arm}" for arm in "BE" for lab in state.mode_labels)
    padded = GaussianState(
        labels,
        np.concatenate([state.mean, np.zeros(4)]),
        np.block([[state.cov, np.zeros((4, 4))], [np.zeros((4, 4)), 0.5 * np.eye(4)]]),
    )
    return _transformed(padded, np.kron([[t, e], [e, -t]], np.eye(4)) + 0.0)


@functools.lru_cache(maxsize=128)
def _alice_source_cached(params: SourceParams, bit: int, diag: bool) -> GaussianState:
    n_seed = params.n_total_seed
    signed_n = params.bit_amplitude_N if bit == 1 else -params.bit_amplitude_N
    alpha_v = math.sqrt(0.5 * (n_seed + signed_n))
    alpha_h = 1j * math.sqrt(0.5 * (n_seed - signed_n))
    seed = make_coherent_seed(alpha_v, alpha_h)
    r = solve_gain_squeeze(params)
    pulse = apply_two_mode_squeeze(seed, r, PUMP_PHASE)
    if diag:
        # -pi/4 maps the V/H difference signal onto +n on the +45/-45
        # difference observable (the +pi/4 sense would flip the bit).
        pulse = apply_rotation(pulse, -math.pi / 4)
    return pulse


def alice_source(params: SourceParams, bit: int, basis: Basis | str) -> GaussianState:
    """Alice's encoded pulse for one key bit.

    The coherent seed carries the difference number +N (bit 1) or -N (bit 0)
    with a pi/2 phase between the modes; two-mode squeezing at PUMP_PHASE
    amplifies the total photon number to ``n_total_amp`` while preserving
    the difference number statistics; basis DIAG applies the polarization
    rotation that moves the signal onto the +45/-45 difference observable.
    Results are memoized: states are immutable. The cache serves the
    single-pulse reference and its tests, which rebuild a pulse per draw.

    The covariance carries the gain, so V_match = n_s as read off it by
    ``diff_number_moments`` loses digits as G grows: at n_s = 1e6, N = n_s/2
    its relative error was 6.1e-11, 1.9e-9, 3.6e-7, 4.3e-5 and 0.25 at G =
    1e3, 1e4, 1e5, 1e6 and 1e8; at (1e12, 1e13, 0.5) it reads -0.494, which
    ``outcome_law`` refuses. ``source_law``, which sessions read, is exact.
    """
    if bit not in (0, 1):
        raise ValueError(f"bit must be 0 or 1 (got {bit})")
    return _alice_source_cached(params, int(bit), Basis(basis) is Basis.DIAG)
