"""Mode-by-mode spectral machinery for constant relaxation, in closed form.

Each Fourier mode k of the two-velocity system evolves by -C_k with

    C_k = [[0, ik], [ik, sigma]],   eigenvalues sigma/2 +- sqrt(sigma^2/4 - k^2).

Mode by mode, the Lyapunov functional of the constant case is the twist
P_k = [[1, -ia], [ia, 1]], a = theta/(2k), with theta the twist of
``rates.constant_rate`` (sigma below 2, 4/sigma above, and the eps-regularised
2(2 - eps^2)/(2 + eps^2) at sigma = 2). theta < 2, so P_k is positive definite.
The mode's Lyapunov gap is the largest mu with C_k^* P_k + P_k C_k >= 2 mu P_k:
half the smaller root of that 2x2 pencil. The pencil's determinant is
(1 - a^2) x^2 - (sigma - theta)^2 in x = sigma - lambda, and theta <= sigma for
every constant twist, so the root is sigma - (sigma - theta)/s, s = sqrt(1 - a^2).
Mode k is defective iff |sigma - 2|k|| <= ``rates.DEFECT_TOL``.

``eigenvalues`` and ``lyapunov_gap`` take one mode or an array of modes.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import ValidationError
from .rates import DEFECT_TOL, constant_rate, needs_eps


class ModeEigenvalues(NamedTuple):
    lam_minus: complex | np.ndarray
    lam_plus: complex | np.ndarray
    defective: bool | np.ndarray


class SpectralGap(NamedTuple):
    mu: float
    defective: bool


def eigenvalues(k, sigma: float) -> ModeEigenvalues:
    """Both eigenvalues of C_k, smaller (Re, Im) first; flags the defective case.

    The root sqrt(sigma^2/4 - k^2) is taken as sqrt(|sigma/2 - |k||) sqrt(sigma/2 + |k|),
    which does not overflow for any float sigma, even at the integer
    k = round(sigma/2), and a real lam_minus as k^2 / lam_plus, which does
    not cancel.
    """
    half, k = sigma / 2.0, np.abs(np.asarray(k, dtype=float))
    near = half - k
    root = np.sqrt(np.abs(near)) * np.sqrt(half + k)
    real = near >= 0.0
    lam_minus = np.where(real, k / (half + root) * k, half - 1j * root)
    lam_plus = np.where(real, half + root, half + 1j * root)
    defective = (k != 0.0) & (np.abs(sigma - 2.0 * k) <= DEFECT_TOL)
    return ModeEigenvalues(lam_minus[()], lam_plus[()], defective[()])


def lyapunov_gap(k, sigma: float, eps: float | None = None):
    """Largest mu with C_k^* P_k + P_k C_k >= 2 mu P_k for the constant-sigma twist.

    Half of sigma - (sigma - theta)/s, evaluated as
    theta - ((sigma - theta) theta) theta/(4k^2 s (1 + s)): 1 - s = a^2/(1 + s)
    takes out the cancellation at large sigma, (sigma - theta) theta <= 4 keeps
    every factor in range, and below sigma = 2, where theta = sigma, the gap is
    sigma/2 exactly.
    """
    theta = constant_rate(sigma, eps).theta
    k = np.asarray(k, dtype=float)
    if np.any(k == 0.0):
        raise ValidationError("no twist is defined for the conserved mode k = 0")
    s = np.sqrt(1.0 - (theta / (2.0 * k)) ** 2)
    return ((theta - (sigma - theta) * theta * theta / (4.0 * k * k * s * (1.0 + s))) / 2.0)[()]


def spectral_gap(sigma: float) -> SpectralGap:
    """min_k Re lambda over k != 0, with a flag when any mode is defective."""
    if sigma <= 0:
        raise ValidationError(f"sigma must be positive, got {sigma}")
    if needs_eps(sigma):
        return SpectralGap(1.0, True)
    defective = sigma > 2.0 and bool(eigenvalues(round(sigma / 2.0), sigma).defective)
    return SpectralGap(constant_rate(sigma).mu, defective)


def modal_report(sigma: float, kmax: int, eps: float | None = None) -> dict:
    """Columns k, eigenvalues, Lyapunov gap and eigenvalue case for k = 1..kmax."""
    if kmax < 1:
        raise ValidationError(f"kmax must be >= 1, got {kmax}")
    k = np.arange(1, kmax + 1)
    eig = eigenvalues(k, sigma)
    case = np.where(eig.defective, "II", np.where(k < sigma / 2.0, "I", "III"))
    return {
        "k": k,
        "re_lam_minus": eig.lam_minus.real,
        "im_lam_minus": eig.lam_minus.imag,
        "re_lam_plus": eig.lam_plus.real,
        "im_lam_plus": eig.lam_plus.imag,
        "lyapunov_gap": lyapunov_gap(k, sigma, eps if needs_eps(sigma) else None),
        "case": case,
    }
