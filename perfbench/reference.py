"""Closed forms the benchmark checks the program's outputs against.

Everything here is plain ``math`` and written from the physics, not from
the program: it imports nothing from ``macroqkd``, so a fault in the
program's Gaussian engine, photostats or oracle cannot hide in both.

Pulse model (Funk & Raymer, PRA 65, 042307): a coherent seed with
|alpha_V|^2 = (Ns + N)/2, alpha_H = i |alpha_H|, |alpha_H|^2 = (Ns - N)/2 and
Ns = N_T / G, two-mode squeezed by r (phase pi/2) until the mean total
photon number is N_T. Two-mode squeezing conserves n_V - n_H, so in the
encoding basis the difference has mean +-N and variance Ns. Non-polarizing
loss with transmission t thins both photon counts binomially, so a
difference observable with lossless moments (m, v) on a pulse of mean total
photon number n_tot has moments (t m, t^2 v + t (1 - t) n_tot) after it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def total_photons(a2: float, b2: float, r: float) -> float:
    """Mean total photon number after squeezing the seed |a, i b> by r."""
    c, s = math.cosh(r), math.sinh(r)
    a, b = math.sqrt(a2), math.sqrt(b2)
    return (c * c + s * s) * (a2 + b2) + 4.0 * c * s * a * b + 2.0 * s * s


def crossed_variance(a2: float, b2: float, r: float) -> float:
    """Variance of n_+45 - n_-45 for the squeezed seed |a, i b>, lossless.

    With A = c a_V + i s a_H^dag and B = c a_H + i s a_V^dag acting on the
    coherent seed, the observable is A^dag B + B^dag A. Its mean vanishes;
    its variance is the displacement term
    (|A0|^2 + |B0|^2)(c^2 + s^2) + 4 c s (c a + s b)(c b + s a) plus the
    squeezed-vacuum term 4 c^2 s^2, where A0 = c a + s b, |B0| = c b + s a.
    """
    c, s = math.cosh(r), math.sinh(r)
    a, b = math.sqrt(a2), math.sqrt(b2)
    a0, b0 = c * a + s * b, c * b + s * a
    return (a0 * a0 + b0 * b0) * (c * c + s * s) + 4.0 * c * s * a0 * b0 + 4.0 * c * c * s * s


def thinned(mean: float, var: float, n_tot: float, t: float) -> tuple[float, float]:
    """Moments of a photon-difference observable after transmission t."""
    return t * mean, t * t * var + t * (1.0 - t) * n_tot


@dataclass(frozen=True)
class Design:
    """Alice's source: gain G, total photons N_T, bit amplitude N."""

    gain: float
    n_total: float
    bit_amplitude: float

    @property
    def seed_photons(self) -> float:
        return self.n_total / self.gain

    @property
    def seed_split(self) -> tuple[float, float]:
        ns, n = self.seed_photons, self.bit_amplitude
        return 0.5 * (ns + n), 0.5 * (ns - n)

    def squeeze(self) -> float:
        """r solving total_photons(r) = N_T; the left side increases in r."""
        a2, b2 = self.seed_split
        lo, hi = 0.0, 1.0
        while total_photons(a2, b2, hi) < self.n_total:
            hi *= 2.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid in (lo, hi):
                break
            if total_photons(a2, b2, mid) < self.n_total:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    def correct_moments(self, t: float, nen: float = 0.0) -> tuple[float, float]:
        """Detected (mean, variance) of n for bit 1 in the encoding basis."""
        mean, var = thinned(self.bit_amplitude, self.seed_photons, self.n_total, t)
        return mean, var + 2.0 * nen * nen

    def crossed_moments(self, t: float, nen: float = 0.0) -> tuple[float, float]:
        """Detected (mean, variance) of n measured in the other basis."""
        a2, b2 = self.seed_split
        mean, var = thinned(0.0, crossed_variance(a2, b2, self.squeeze()), self.n_total, t)
        return mean, var + 2.0 * nen * nen

    def error_rate(self, t: float, nen: float = 0.0) -> float:
        """Probability that sign decoding flips the bit at transmission t."""
        mean, var = self.correct_moments(t, nen)
        if mean == 0.0:
            return 0.5
        return 0.5 * math.erfc(mean / math.sqrt(2.0 * var))


DEFAULT_DESIGN = Design(10.0, 2e6, 2460.0)


def normal_pdf(x: float, mean: float, var: float) -> float:
    sigma = math.sqrt(var)
    z = (x - mean) / sigma
    return math.exp(-0.5 * z * z) / (sigma * math.sqrt(2.0 * math.pi))


def ladder_moments(
    r: float, a2: float, b2: float, eta: float, basis: str
) -> tuple[float, float]:
    """Exact (mean, variance) of a validation-ladder row: seed |a, i b>,
    squeeze r at phase pi/2, loss eta, difference measured in ``basis``."""
    n_tot = total_photons(a2, b2, r)
    if basis == "VH":
        return thinned(a2 - b2, a2 + b2, n_tot, 1.0 - eta)
    return thinned(0.0, crossed_variance(a2, b2, r), n_tot, 1.0 - eta)
