"""Mode-by-mode spectral machinery for constant relaxation.

Each Fourier mode k of the two-velocity system evolves by -C_k with

    C_k = [[0, ik], [ik, sigma]],   eigenvalues sigma/2 +- sqrt(sigma^2/4 - k^2).

Unit-diagonal Hermitian twist matrices P turn the positive-stable C_k into a
decaying norm via C_k^* P + P C_k >= 2 mu P. Mode by mode, the Lyapunov
functional of the constant case is one symbol: P_k has off-diagonal
-i theta/(2k), with theta the twist of ``rates.constant_rate`` (sigma below 2,
4/sigma above, and the eps-regularised 2(2 - eps^2)/(2 + eps^2) at sigma = 2).
Mode k is defective iff |sigma - 2|k|| <= ``rates.DEFECT_TOL``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ValidationError
from .rates import DEFECT_TOL, constant_rate, needs_eps

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
    defective = k != 0 and abs(sigma - 2.0 * abs(k)) <= DEFECT_TOL
    return ModeEigenvalues(complex(lam_minus), complex(lam_plus), defective)


@dataclass(frozen=True, eq=False)
class TwistMatrix:
    """Unit-diagonal Hermitian positive definite 2x2 twist."""

    entries: np.ndarray

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

    def weighted_norm_sq(self, y) -> float:
        """y* P y for a length-2 vector."""
        y = np.asarray(y, dtype=complex)
        return float(np.real(y.conj() @ self.entries @ y))


def _twist(off_diag: complex) -> TwistMatrix:
    return TwistMatrix(np.array([[1.0, off_diag], [np.conj(off_diag), 1.0]]))


def _require_mode(k: int) -> None:
    if k == 0:
        raise ValidationError("no twist is defined for the conserved mode k = 0")


def p_low_mode(k: int, sigma: float) -> TwistMatrix:
    """Real-eigenvalue regime 0 < |k| < sigma/2: off-diagonal -2ki/sigma."""
    _require_mode(k)
    return _twist(-2j * k / sigma)


def p_defective(eps: float, k: int) -> TwistMatrix:
    """Defective pair k = +-1 at sigma = 2, regularised by eps in (0, 1)."""
    if abs(k) != 1:
        raise ValidationError(f"defective twist is defined for k = +-1, got k={k}")
    if not 0.0 < eps < 1.0:
        raise ValidationError(f"eps in (0, 1) required, got {eps}")
    c = (2.0 - eps**2) / (2.0 + eps**2)
    return _twist(-1j * c / k)


def p_matrix(k: int, sigma: float, eps: float | None = None) -> TwistMatrix:
    """Twist of mode k: the symbol -i theta/(2k) of the constant-sigma functional.

    theta is the twist of ``rates.constant_rate(sigma, eps)``, so eps is
    required at sigma = 2 and rejected elsewhere, as there.
    """
    _require_mode(k)
    return _twist(-1j * constant_rate(sigma, eps).theta / (2.0 * k))


def lyapunov_gap(k: int, sigma: float, eps: float | None = None) -> float:
    """Largest mu with C_k^* P + P C_k - 2 mu P >= 0 for the selected twist.

    The pencil (S, P) is reduced as LAPACK's zhegv does: with P = L L^*,
    its eigenvalues are those of L^-1 S L^-*.
    """
    p = p_matrix(k, sigma, eps).entries
    c = c_matrix(k, sigma)
    s = c.conj().T @ p + p @ c
    li = np.linalg.inv(np.linalg.cholesky(p))
    return float(np.linalg.eigvalsh(li @ s @ li.conj().T).min() / 2.0)


def spectral_gap(sigma: float) -> SpectralGap:
    """min_k Re lambda over k != 0, with a flag when any mode is defective."""
    if sigma <= 0:
        raise ValidationError(f"sigma must be positive, got {sigma}")
    if needs_eps(sigma):
        return SpectralGap(1.0, True)
    defective = sigma > 2.0 and eigenvalues(round(sigma / 2.0), sigma).defective
    return SpectralGap(constant_rate(sigma).mu, defective)


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
