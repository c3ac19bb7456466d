"""Statistics of the photon difference number n for Gaussian pulses.

The difference number in the V/H basis is n = n_V - n_H; in the +45/-45
basis it is n = n_{+45} - n_{-45}, which equals the V/H observable
conjugated by the pi/4 polarization rotation. Means and variances of these
quadratic observables follow from the Gaussian moment formulas

    <n>     = tr(F Sigma) + m^T F m
    var(n)  = 2 tr(F Sigma F Sigma) + (1/2) tr(F Omega F Omega)
              + 4 m^T F Sigma F m

where F is the observable's quadratic form, Sigma the covariance matrix,
m the mean vector and Omega the symplectic form. The commutator term
(1/2) tr(F Omega F Omega) makes var(n) vanish for the vacuum. These
closed forms are validated against the exact Fock-space oracle before use
(see macroqkd.validate).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .gaussian import (
    Basis,
    GaussianState,
    SourceParams,
    alice_source,
    apply_loss,
    is_number,
    rotation_symplectic,
    symplectic_form,
)


@dataclass(frozen=True)
class DiffMoments:
    """Mean and variance (photons, photons^2) of the difference number."""

    mean: float
    variance: float


@dataclass(frozen=True)
class DetectorModel:
    """Linear photodetector pair measuring the two polarization modes.

    ``noise_equivalent_number`` is the RMS read noise of each detector in
    photon units; both detectors contribute independently to the measured
    difference. Quantum efficiency below one acts as a further loss of
    1 - quantum_efficiency in front of ideal detectors (see
    ``detected_state``).
    """

    noise_equivalent_number: float = 250.0
    quantum_efficiency: float = 1.0

    def __post_init__(self) -> None:
        problems = detector_violations(self.noise_equivalent_number, self.quantum_efficiency)
        if problems:
            raise ValueError("; ".join(problems))

    @property
    def difference_noise_variance(self) -> float:
        return 2.0 * self.noise_equivalent_number**2


def detector_violations(noise_equivalent_number: float, quantum_efficiency: float) -> list[str]:
    """All constraint violations of a prospective DetectorModel, as messages."""
    out = []
    if not (is_number(noise_equivalent_number) and 0 <= noise_equivalent_number < math.inf):
        out.append(
            f"noise_equivalent_number must be finite and >= 0 (got {noise_equivalent_number!r})"
        )
    if not (is_number(quantum_efficiency) and 0.0 < quantum_efficiency <= 1.0):
        out.append(f"quantum_efficiency must be in (0, 1] (got {quantum_efficiency!r})")
    return out


NOISELESS = DetectorModel(noise_equivalent_number=0.0)


def detected_state(state: GaussianState, detector: DetectorModel) -> GaussianState:
    """The state a detector pair registers: ``state`` itself at unit
    quantum efficiency, otherwise ``state`` after a loss of 1 - qe."""
    if detector.quantum_efficiency < 1.0:
        return apply_loss(state, 1.0 - detector.quantum_efficiency)
    return state


_F_VH = 0.5 * np.diag([1.0, 1.0, -1.0, -1.0])
_S_DIAG = rotation_symplectic(math.pi / 4)
_F_DIAG = _S_DIAG.T @ _F_VH @ _S_DIAG
_F_TOTAL = 0.5 * np.eye(4)  # form of n_V + n_H + 1 (1/2 vacuum offset per mode)
_OMEGA4 = symplectic_form(2)
_OMEGA8 = symplectic_form(4)


def basis_form(basis: Basis) -> np.ndarray:
    """Quadratic form of the difference observable in the given basis."""
    return _F_VH if Basis(basis) is Basis.VH else _F_DIAG


def _quadratic_moments(
    mean: np.ndarray, cov: np.ndarray, f: np.ndarray, omega: np.ndarray
) -> tuple[float, float]:
    fs = f @ cov
    fm = f @ mean
    mu = float(np.trace(fs) + mean @ fm)
    fo = f @ omega
    var = float(2.0 * np.sum(fs.T * fs) + 0.5 * np.sum(fo.T * fo) + 4.0 * fm @ cov @ fm)
    return mu, var


@functools.lru_cache(maxsize=512)
def diff_number_moments(state: GaussianState, basis: Basis) -> DiffMoments:
    """Exact mean and variance of the difference number for a two-mode state.

    Memoized on (state identity, basis): states are immutable. The cache
    serves the single-pulse reference and its tests, which measure the same
    pulses per draw; the benchmark's ``CACHED`` list reads its hit ratio.
    """
    if state.num_modes != 2:
        raise ValueError(f"expected a two-mode state, got {state.num_modes} modes")
    mu, var = _quadratic_moments(state.mean, state.cov, basis_form(basis), _OMEGA4)
    return DiffMoments(mu, var)


def source_law(params: SourceParams) -> tuple[float, float, float, float]:
    """(N, V_match, V_mis, N_T): Alice's pulse has difference mean +-N and
    variance V_match = N_T / G in its basis, 0 and V_mis in the other, and
    N_T photons. Every pulse measured is one of hers ``_thinned`` to some t."""
    pulse = alice_source(params, 1, Basis.VH)
    match, mismatch = diff_number_moments(pulse, Basis.VH), diff_number_moments(pulse, Basis.DIAG)
    n_total = _quadratic_moments(pulse.mean, pulse.cov, _F_TOTAL, _OMEGA4)[0] - 1.0
    return match.mean, match.variance, mismatch.variance, n_total


def _thinned(mean, variance, n_total, t):
    """Moments of a difference number on a pulse of n_total photons after
    transmission t: binomial thinning of both counts makes them exactly
    t mean and t^2 variance + t (1 - t) n_total. Arrays broadcast."""
    return t * mean, t * t * variance + t * (1.0 - t) * n_total


def _thinned_laws(params: SourceParams, t: float, noise_variance: float = 0.0) -> np.ndarray:
    """Normal laws [bit, basis, measured basis, (mean, sigma)] of Alice's
    pulses thinned to transmission t, plus read-noise variance: mean +-t N
    in the launch basis and exactly 0 in the other."""
    n, v_match, v_mismatch, n_total = source_law(params)
    match = np.eye(2, dtype=bool)  # [basis, measured basis]
    signed = np.where(match, n, 0.0) * np.array([-1.0, 1.0])[:, None, None]
    mean, var = _thinned(signed, np.where(match, v_match, v_mismatch), n_total, t)
    return np.stack(np.broadcast_arrays(mean, np.sqrt(var + noise_variance)), -1)


@functools.lru_cache(maxsize=256)
def joint_diff_moments(
    joint: GaussianState, basis_b: Basis, basis_e: Basis
) -> tuple[float, float, float, float, float]:
    """Joint first and second moments of the two difference observables on a
    four-mode tap state.

    Returns (mean_b, var_b, mean_e, var_e, cov_be) where the B observable
    acts on the first two modes and the E observable on the last two. The
    commutator cross term vanishes because the supports are disjoint.
    """
    if joint.num_modes != 4:
        raise ValueError(f"expected a four-mode state, got {joint.num_modes} modes")
    f_b = np.zeros((8, 8))
    f_b[:4, :4] = basis_form(basis_b)
    f_e = np.zeros((8, 8))
    f_e[4:, 4:] = basis_form(basis_e)
    mean_b, var_b = _quadratic_moments(joint.mean, joint.cov, f_b, _OMEGA8)
    mean_e, var_e = _quadratic_moments(joint.mean, joint.cov, f_e, _OMEGA8)
    sb = f_b @ joint.cov
    se = f_e @ joint.cov
    cov_be = float(
        2.0 * np.trace(sb @ se) + 4.0 * joint.mean @ f_b @ joint.cov @ f_e @ joint.mean
    )
    return mean_b, var_b, mean_e, var_e, cov_be


def decode_bit(raw_n: float) -> int:
    """Sign decoding of a difference-number outcome: n > 0 reads as bit 1,
    n < 0 as bit 0. The measure-zero tie n == 0 decodes as 1."""
    return 1 if raw_n >= 0.0 else 0


def outcome_normal(moments: DiffMoments, detector: DetectorModel) -> tuple[float, float]:
    """Mean and standard deviation of the detected difference number.

    The outcome is Normal(mean, variance + detector read-noise variance);
    at the macroscopic photon numbers simulated here the discreteness of n
    is negligible, so no integer rounding is applied. Only the detector's
    read noise is applied: ``moments`` must already include its efficiency
    loss (``detected_state``, as ``outcome_law`` does), or qe is ignored.
    """
    if not moments.variance >= 0:  # NaN included
        raise ValueError(f"variance must be >= 0 (got {moments.variance!r})")
    return moments.mean, math.sqrt(moments.variance + detector.difference_noise_variance)


def outcome_law(
    state: GaussianState, basis: Basis, detector: DetectorModel
) -> tuple[float, float]:
    """Mean and standard deviation of what ``detector`` reads from ``state``
    in ``basis``: the pulse after the efficiency loss of ``detected_state``,
    then read noise as in ``outcome_normal``. The session table and
    ``bob_error_curve`` apply the same rule to the thinned source law: qe
    multiplies Bob's transmission, and 2 nen^2 adds to the variance."""
    return outcome_normal(diff_number_moments(detected_state(state, detector), basis), detector)


def sample_outcome(
    moments: DiffMoments, detector: DetectorModel, rng: np.random.Generator
) -> float:
    """Draw one detected difference-number value (see ``outcome_normal``):
    ``moments`` must already include the detector's efficiency loss."""
    mean, sigma = outcome_normal(moments, detector)
    return mean + sigma * rng.standard_normal()


def _erfc(x: np.ndarray) -> np.ndarray:
    """``math.erfc`` elementwise: NumPy has none, and SciPy is not loaded."""
    return np.array([math.erfc(v) for v in x.ravel().tolist()]).reshape(x.shape)


def _flip_probabilities(mean: np.ndarray, total_var: np.ndarray) -> np.ndarray:
    """0.5 erfc(|mean| / sqrt(2 total_var)) elementwise: exactly 0.5 at zero
    mean and 0 at zero variance otherwise."""
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.abs(mean) / np.sqrt(2.0 * total_var)
    p = 0.5 * _erfc(z)
    p[total_var <= 0.0] = 0.0
    p[mean == 0.0] = 0.5
    return p


def error_probability(moments: DiffMoments, detector: DetectorModel) -> float:
    """Probability that the sign of the outcome flips the encoded bit. Only
    the detector's read noise is applied: ``moments`` must already include
    its efficiency loss (``detected_state``), or qe is ignored."""
    if not moments.variance >= 0:  # NaN included
        raise ValueError(f"variance must be >= 0 (got {moments.variance!r})")
    total_var = moments.variance + detector.difference_noise_variance
    return float(_flip_probabilities(np.array([moments.mean]), np.array([total_var]))[0])


def _loss_fractions(etas: np.ndarray, closed: bool) -> np.ndarray:
    """``etas`` as a float array; raises unless every one lies in [0, 1]
    (``closed``) or [0, 1)."""
    etas = np.array(etas, dtype=float, ndmin=1)
    ok = (etas >= 0.0) & ((etas <= 1.0) if closed else (etas < 1.0))
    if not np.all(ok):
        interval = "[0, 1]" if closed else "[0, 1)"
        raise ValueError(f"eta must be in {interval} (got {etas[~ok][0]})")
    return etas


def bob_error_curve(
    params: SourceParams, etas: np.ndarray, detector: DetectorModel
) -> np.ndarray:
    """Bob's bit-flip probability after channels losing the fractions etas.

    The detector's quantum efficiency qe composes with the channel in
    transmission space: Bob's pulse is the lossless one thinned to
    t = (1 - eta) qe; by symmetry its bit-1 cell stands for both bits.
    """
    etas = _loss_fractions(etas, closed=False)
    n, v_match, _, n_total = source_law(params)
    mean, var = _thinned(n, v_match, n_total, (1.0 - etas) * detector.quantum_efficiency)
    return _flip_probabilities(mean, var + detector.difference_noise_variance)


def eve_tap_curve(params: SourceParams, etas: np.ndarray) -> np.ndarray:
    """Probability that Eve, holding the fractions etas of the pulse (her
    transmission) and knowing the basis, infers the correct bit (ideal detector)."""
    etas = _loss_fractions(etas, closed=True)
    n, v_match, _, n_total = source_law(params)
    return 1.0 - _flip_probabilities(*_thinned(n, v_match, n_total, etas))


def bob_error_vs_loss(
    params: SourceParams, eta: float, detector: DetectorModel
) -> float:
    """Bob's bit-flip probability after a channel losing a fraction eta: the
    one-point case of ``bob_error_curve``."""
    return float(bob_error_curve(params, [eta], detector)[0])


def eve_tap_probability(params: SourceParams, eta: float) -> float:
    """Eve's correct-bit probability at one sampled fraction eta: the
    one-point case of ``eve_tap_curve``."""
    return float(eve_tap_curve(params, [eta])[0])


def distribution_curve(
    state: GaussianState,
    basis: Basis,
    detector: DetectorModel,
    n_grid: np.ndarray,
) -> np.ndarray:
    """Gaussian probability density of the detected difference number,
    evaluated on a grid of n values (one density per grid value)."""
    grid = np.asarray(n_grid, dtype=float)
    if grid.size == 0:
        raise ValueError("n_grid must be non-empty")
    mean, sigma = outcome_law(state, basis, detector)
    return np.exp(-0.5 * ((grid - mean) / sigma) ** 2) / (sigma * math.sqrt(2 * math.pi))
