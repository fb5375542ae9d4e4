"""Mode-by-mode spectral machinery for constant relaxation.

Each Fourier mode k of the two-velocity system evolves by -C_k with

    C_k = [[0, ik], [ik, sigma]],   eigenvalues sigma/2 +- sqrt(sigma^2/4 - k^2).

Unit-diagonal Hermitian twist matrices P turn the positive-stable C_k into a
decaying norm via C_k^* P + P C_k >= 2 mu P. The selections used here:
low modes below sigma/2 get off-diagonal 2k/sigma, high modes sigma/(2k); for
sigma > 2 the single sufficient family with off-diagonal 2/(k sigma) matches
the low-mode optimum at k = +-1, and sigma = 2 gets the epsilon-regularised
variant with off-diagonal (2 - eps^2)/(k(2 + eps^2)).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ValidationError
from .rates import needs_eps

_DEFECT_TOL = 1e-12
_HERMIT_TOL = 1e-15


class ModeEigenvalues(NamedTuple):
    lam_minus: complex
    lam_plus: complex
    defective: bool


class SpectralGap(NamedTuple):
    mu: float
    defective: bool


def c_matrix(k: int, sigma: float) -> np.ndarray:
    """System matrix of mode k: trace sigma, determinant k^2."""
    if sigma <= 0:
        raise ValidationError(f"sigma must be positive, got {sigma}")
    return np.array([[0.0, 1j * k], [1j * k, sigma]], dtype=complex)


def eigenvalues(k: int, sigma: float) -> ModeEigenvalues:
    """Both eigenvalues of C_k, smaller (Re, Im) first; flags the defective case."""
    root = np.sqrt(complex(sigma**2 / 4.0 - k**2))
    lam_minus = sigma / 2.0 - root
    lam_plus = sigma / 2.0 + root
    defective = k != 0 and abs(sigma / 2.0 - abs(k)) < _DEFECT_TOL
    return ModeEigenvalues(complex(lam_minus), complex(lam_plus), defective)


@dataclass(frozen=True, eq=False)
class TwistMatrix:
    """Unit-diagonal Hermitian positive definite 2x2 twist."""

    entries: np.ndarray
    case_tag: str

    def __post_init__(self):
        m = np.array(np.asarray(self.entries), dtype=complex)
        if m.shape != (2, 2):
            raise ValidationError(f"twist matrix must be 2x2, got {m.shape}")
        if np.max(np.abs(m - m.conj().T)) > _HERMIT_TOL:
            raise ValidationError("twist matrix must be Hermitian")
        if abs(m[0, 0] - 1.0) > _HERMIT_TOL or abs(m[1, 1] - 1.0) > _HERMIT_TOL:
            raise ValidationError("twist matrix must have unit diagonal")
        if abs(m[0, 1]) >= 1.0:
            raise ValidationError(
                f"off-diagonal magnitude {abs(m[0, 1])} >= 1: not positive definite"
            )
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)

    @property
    def off_diagonal(self) -> complex:
        return complex(self.entries[0, 1])

    def weighted_norm_sq(self, y) -> float:
        """y* P y for a length-2 vector."""
        y = np.asarray(y, dtype=complex)
        return float(np.real(y.conj() @ self.entries @ y))


def _twist(off_diag: complex, tag: str) -> TwistMatrix:
    return TwistMatrix(np.array([[1.0, off_diag], [np.conj(off_diag), 1.0]]), tag)


def _require_mode(k: int) -> None:
    if k == 0:
        raise ValidationError("no twist is defined for the conserved mode k = 0")


def p_low_mode(k: int, sigma: float) -> TwistMatrix:
    """Real-eigenvalue regime 0 < |k| < sigma/2: off-diagonal -2ki/sigma."""
    _require_mode(k)
    return _twist(-2j * k / sigma, "low-mode")


def p_high_mode(k: int, sigma: float) -> TwistMatrix:
    """Complex-eigenvalue regime |k| > sigma/2: off-diagonal -i sigma/(2k)."""
    _require_mode(k)
    return _twist(-1j * sigma / (2.0 * k), "high-mode")


def p_defective(eps: float, k: int) -> TwistMatrix:
    """Defective pair k = +-1 at sigma = 2, regularised by eps."""
    if abs(k) != 1:
        raise ValidationError(f"defective twist is defined for k = +-1, got k={k}")
    _check_eps(eps)
    c = (2.0 - eps**2) / (2.0 + eps**2)
    return _twist(-1j * c / k, "defective")


def p_sufficient(k: int, sigma: float) -> TwistMatrix:
    """High-mode family with sigma -> 4/sigma: off-diagonal -2i/(k sigma)."""
    _require_mode(k)
    return _twist(-2j / (k * sigma), "sufficient")


def p_sufficient_eps(k: int, eps: float) -> TwistMatrix:
    """High-mode family with sigma -> 2(2-eps^2)/(2+eps^2) for sigma = 2."""
    _require_mode(k)
    _check_eps(eps)
    c = (2.0 - eps**2) / (2.0 + eps**2)
    return _twist(-1j * c / k, "sufficient-eps")


def _check_eps(eps) -> None:
    if eps is None or not 0.0 < eps < 1.0:
        raise ValidationError(f"eps in (0, 1) required, got {eps}")


def p_matrix(k: int, sigma: float, eps: float | None = None) -> TwistMatrix:
    """Twist used for mode k at the given sigma (eps required iff sigma = 2)."""
    _require_mode(k)
    if sigma <= 0:
        raise ValidationError(f"sigma must be positive, got {sigma}")
    if needs_eps(sigma):
        return p_sufficient_eps(k, eps)
    if eps is not None:
        raise ValidationError("eps applies only to sigma = 2")
    if sigma < 2.0:
        return p_high_mode(k, sigma)
    return p_sufficient(k, sigma)


def _inv_sqrt_unit_diag(p: TwistMatrix) -> np.ndarray:
    """Closed-form P^(-1/2) for P = [[1, a], [conj(a), 1]], |a| < 1."""
    a = p.off_diagonal
    r = abs(a)
    if r == 0.0:
        return np.eye(2, dtype=complex)
    u = a / r
    fp = 1.0 / np.sqrt(1.0 + r)  # eigenvalue 1 + r, eigenvector (1, conj(u))
    fm = 1.0 / np.sqrt(1.0 - r)
    diag = (fp + fm) / 2.0
    off = (fp - fm) / 2.0
    return np.array([[diag, off * u], [off * np.conj(u), diag]], dtype=complex)


def lyapunov_gap(k: int, sigma: float, eps: float | None = None) -> float:
    """Largest mu with C_k^* P + P C_k - 2 mu P >= 0 for the selected twist."""
    _require_mode(k)
    p = p_matrix(k, sigma, eps)
    c = c_matrix(k, sigma)
    s = c.conj().T @ p.entries + p.entries @ c
    w = _inv_sqrt_unit_diag(p)
    reduced = w @ s @ w
    reduced = (reduced + reduced.conj().T) / 2.0
    return float(np.min(np.linalg.eigvalsh(reduced)) / 2.0)


def spectral_gap(sigma: float) -> SpectralGap:
    """min_k Re lambda over k != 0, with a flag when any mode is defective."""
    if sigma <= 0:
        raise ValidationError(f"sigma must be positive, got {sigma}")
    half = sigma / 2.0
    defective = half >= 1.0 and abs(half - round(half)) < _DEFECT_TOL
    if sigma < 2.0:
        return SpectralGap(half, False)
    if needs_eps(sigma):
        return SpectralGap(1.0, True)
    mu = half - np.sqrt(half**2 - 1.0)
    return SpectralGap(float(mu), defective)


def modal_report(sigma: float, kmax: int, eps: float | None = None) -> list[dict]:
    """Rows (k, eigenvalues, Lyapunov gap, eigenvalue case) for k = 1..kmax."""
    if kmax < 1:
        raise ValidationError(f"kmax must be >= 1, got {kmax}")
    eps = eps if needs_eps(sigma) else None
    rows = []
    for k in range(1, kmax + 1):
        eig = eigenvalues(k, sigma)
        if eig.defective:
            case = "II"
        elif k < sigma / 2.0:
            case = "I"
        else:
            case = "III"
        rows.append(
            {
                "k": k,
                "re_lam_minus": eig.lam_minus.real,
                "im_lam_minus": eig.lam_minus.imag,
                "re_lam_plus": eig.lam_plus.real,
                "im_lam_plus": eig.lam_plus.imag,
                "lyapunov_gap": lyapunov_gap(k, sigma, eps),
                "case": case,
            }
        )
    return rows
