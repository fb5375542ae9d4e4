"""Weighted Poincare constants for two-piece weights, and the rate-improvement
fixed-point iteration they enable.

For a weight w1 on (0, pi], w2 on (pi, 2pi] the sharp constant in

    int (f - f_avg)^2 w dx <= C_w^2 int (f')^2 dx

is C_w^2 = 1/c_min, where c_min is the smallest constrained eigenvalue

    c_min = min int f'^2 / int w f^2  over periodic f with int f = 0.

It is found by bisecting N_c(lambda), the number of constrained eigenvalues
below lambda, which _count evaluates exactly: the bordered form

    B(f, mu) = int f'^2 - lambda int w f^2 + 2 mu int f

on periodic f has N_c + 1 negative directions. Splitting f into its part
vanishing at 0 = 2 pi and the rest, Haynsworth's inertia additivity gives

    N_c = N_D + n_-(S) - 1,

with N_D the number of Dirichlet eigenvalues of u'' + lambda w u = 0 on
(0, 2 pi) below lambda, and S the 2x2 Schur complement on (h(0), mu):

    S = [[h'(2 pi) - h'(0), int h], [int h, int p]],

where h'' + lambda w h = 0 with h(0) = h(2 pi) = 1, and p'' + lambda w p = 1
with p(0) = p(2 pi) = 0. One pass carries three solutions through each
piece, each with its integral: y'' + lambda w y = 0 from (y, y') = (1, 0)
and from (0, 1), and p's equation from (0, 0). By Sturm's theorem N_D is
the number of zeros of the (0, 1) solution y_s in (0, 2 pi). S is built
times y_s(2 pi)^2 > 0, which keeps its inertia and needs no division.

The bisection runs over the window that the two Rayleigh bounds prove to
hold c_min:

- lower end, 1/max w: int f^2 w <= max w int f^2 <= max w int f'^2, the
  second step Wirtinger's inequality;
- upper end, 2/(w1 + w2): sin x and cos x have zero mean and
  int sin^2 w = int cos^2 w = pi (w1 + w2)/2, with int sin cos w = 0, so
  the two smallest eigenvalues (a close pair among them) lie at or below it.

Equal weights close the window to the point 1/w, the double eigenvalue that
is also a Dirichlet eigenvalue, and it is returned with no count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NumericalError, ValidationError

#: the bisection stops once its bracket is at most this wide, relative to its upper end
_ROOT_RTOL = 1e-12
#: close_root_flag is N_c(c_min + _CLOSE_ROOT_WINDOW) >= 2
_CLOSE_ROOT_WINDOW = 1e-3
#: improved_alpha stops, unconverged, after this many updates
_MAX_ITER = 100
#: (1 - sin x / x) / x^2 below x = 1, summed from its series: sum (-x^2)^n / (2n + 3)!
_SERIES = tuple(1.0 / math.factorial(2 * n + 3) for n in range(9))


@dataclass(frozen=True)
class TwoPieceWeight:
    """Positive weight w1 on (0, pi], w2 on (pi, 2pi]."""

    w1: float
    w2: float

    def __post_init__(self):
        if not (0.0 < self.w1 < math.inf and 0.0 < self.w2 < math.inf):
            raise ValidationError(
                f"weights must be positive and finite, got ({self.w1}, {self.w2})"
            )

    @property
    def sup(self) -> float:
        return max(self.w1, self.w2)


@dataclass(frozen=True)
class PoincareResult:
    """Smallest constrained eigenvalue and the resulting sharp constant."""

    c_min: float
    c_omega_sq: float
    close_root_flag: bool = False  # another eigenvalue, or c_min's multiplicity, within 1e-3 of c_min

    @property
    def c_omega(self) -> float:
        """The sharp constant itself, sqrt(1/c_min)."""
        return math.sqrt(self.c_omega_sq)


def _positive(y: float, dy: float) -> bool:
    """The sign of a solution at a point, or just past it where it vanishes there."""
    return y > 0.0 if y else dy > 0.0


def _count(lam: float, pieces) -> int:
    """N_c(lam): the constrained eigenvalues below lam, with multiplicity.

    pieces holds (length, w) pairs whose lengths sum to 2 pi. On a piece
    with k = sqrt(lam w) and x = k L, each term of the transfer map on
    (y, y', int y) is written in x and L, so that none overflows or cancels
    at any k >= 0, k = 0 included: sin(k L)/k = L sinc x, (1 - cos k L)/k^2
    = L^2 sinc(x/2)^2 / 2 and (k L - sin k L)/k^3 = L^3 (1 - sinc x)/x^2.
    The zeros of the (0, 1) solution on a piece number floor(x/pi) or one
    more, as the sign change across the piece decides.
    """
    y1, d1, i1 = 1.0, 0.0, 0.0
    ys, ds, i_s = 0.0, 1.0, 0.0
    yp, dp, ip = 0.0, 0.0, 0.0
    zeros = 0
    for length, w in pieces:
        k = math.sqrt(lam * w)
        x = k * length
        cos_x, sin_x = math.cos(x), math.sin(x)
        sinc = sin_x / x if x else 1.0
        sinc_half = math.sin(x / 2.0) / (x / 2.0) if x else 1.0
        if x < 1.0:
            x2, rest = x * x, 0.0
            for c in reversed(_SERIES):
                rest = c - x2 * rest
        else:
            rest = (1.0 - sinc) / x / x
        s_k = length * sinc  # sin(k L)/k
        k_s = k * sin_x  # k sin(k L)
        p = 0.5 * length * length * sinc_half * sinc_half  # (1 - cos k L)/k^2
        q = length * length * length * rest  # (k L - sin k L)/k^3
        # floor(x/pi), lowered where x lies below the multiple of pi that x/pi rounds up to
        m = math.floor(x / math.pi)
        if m % 2 != (sin_x < 0.0):
            m -= 1
        before = _positive(ys, ds)
        y1, d1, i1 = cos_x * y1 + s_k * d1, cos_x * d1 - k_s * y1, i1 + s_k * y1 + p * d1
        ys, ds, i_s = cos_x * ys + s_k * ds, cos_x * ds - k_s * ys, i_s + s_k * ys + p * ds
        yp, dp, ip = cos_x * yp + s_k * dp + p, cos_x * dp - k_s * yp + s_k, ip + s_k * yp + p * dp + q
        zeros += m + (m + (before != _positive(ys, ds))) % 2
    # y_s(2 pi) S. Each entry is a sum of products of two factors that vanish together where
    # the monodromy is the identity (a double eigenvalue), so it keeps its relative accuracy there.
    s11 = ys * d1 + (1.0 - y1) * (ds - 1.0)
    s12 = ys * i1 + (1.0 - y1) * i_s
    s22 = ys * ip - yp * i_s
    # divided by +-max |entry|: the sign makes it the inertia of S, and the size keeps det finite
    scale = max(abs(s11), abs(s12), abs(s22)) * (1.0 if _positive(ys, ds) else -1.0)
    if scale == 0.0:
        return zeros - 1
    s11, s12, s22 = s11 / scale, s12 / scale, s22 / scale
    det = s11 * s22 - s12 * s12
    if det < 0.0:
        negative = 1
    elif det > 0.0:
        negative = 2 if s11 < 0.0 else 0
    else:
        negative = int(s11 + s22 < 0.0)
    return zeros + negative - 1


def weighted_poincare(weight: TwoPieceWeight) -> PoincareResult:
    """c_min by bisection of N_c over the window [1/max w, 2/(w1 + w2)]; C_w^2 = 1/c_min.

    The bisection stops once the bracket is at most _ROOT_RTOL of its upper
    end wide, and returns its midpoint. A window past the largest double is
    a NumericalError.
    """
    pieces = ((math.pi, weight.w1), (math.pi, weight.w2))
    lo = 1.0 / weight.sup
    hi = 1.0 / (0.5 * weight.w1 + 0.5 * weight.w2)
    if lo == math.inf:
        raise NumericalError(f"c_min >= 1/max w = 1/{weight.sup:.6g} overflows")
    while hi - lo > _ROOT_RTOL * hi:
        mid = lo + 0.5 * (hi - lo)
        if _count(mid, pieces) >= 1:
            hi = mid
        else:
            lo = mid
    c_min = lo + 0.5 * (hi - lo)
    close = _count(c_min + _CLOSE_ROOT_WINDOW, pieces) >= 2
    return PoincareResult(c_min=c_min, c_omega_sq=1.0 / c_min, close_root_flag=close)


def weight_from_sigma(profile, theta: float, alpha: float) -> TwoPieceWeight:
    """Weight (sigma - alpha)^2 / (2 sigma - theta - alpha) on each piece of a two-piece profile."""
    s1, s2 = profile.as_two_piece()
    vals = []
    for s in (s1, s2):
        # (s - alpha) ((s - alpha)/den), den = 2 s - theta - alpha held as its half: neither the
        # square (past 1.3e154) nor 2 s (past 9e307) overflows
        half_den = s - (theta + alpha) / 2.0
        if half_den <= 0:
            raise ValidationError(
                f"nonpositive denominator 2*{s} - {theta} - {alpha} in the weight"
            )
        d = s - alpha
        vals.append(d * (d / 2.0 / half_den))
    return TwoPieceWeight(*vals)


@dataclass(frozen=True)
class ImprovedAlphaResult:
    alpha_max: float
    iterates: tuple
    converged: bool

    @property
    def iterations(self) -> int:
        return len(self.iterates) - 1


def improved_alpha(
    sigma,
    theta: float,
    alpha0: float,
    tol: float = 1e-6,
) -> ImprovedAlphaResult:
    """Iterate alpha -> theta - theta^2 C^2_{w_alpha} / 4 to its fixed point.

    Replacing the plain Poincare step by the weighted inequality turns the
    admissibility condition into alpha <= theta - theta^2 C^2_{w_alpha}/4;
    iterating from an admissible alpha0 (e.g. the perturbative rate) climbs
    monotonically to the improved rate alpha_max. Stops early, unconverged,
    if an iterate leaves the admissible set.

    Each iterate's constant comes from one bisection of the window that the
    two Rayleigh bounds prove to hold c_min of its weight w:
    1/max w <= c_min <= 2/(w1 + w2) (see the module docstring).
    """

    def cap(alpha: float) -> float:
        weight = weight_from_sigma(sigma, theta, alpha)
        return theta - theta**2 * weighted_poincare(weight).c_omega_sq / 4.0

    slack = max(10.0 * tol, 1e-9)
    current_cap = cap(alpha0)
    if not 0.0 < alpha0 <= current_cap + slack:
        raise ValidationError(
            f"alpha0 = {alpha0} is inadmissible: needs 0 < alpha0 <= {current_cap}"
        )
    iterates = [alpha0]
    alpha = alpha0
    converged = False
    for _ in range(_MAX_ITER):
        candidate = current_cap  # theta - theta^2 C^2_{w_alpha}/4
        try:
            candidate_cap = cap(candidate)
        except (ValidationError, NumericalError):
            break
        if candidate <= 0.0 or candidate > candidate_cap + slack:
            break
        iterates.append(candidate)
        if abs(candidate - alpha) < tol:
            alpha = candidate
            converged = True
            break
        alpha, current_cap = candidate, candidate_cap
    return ImprovedAlphaResult(alpha_max=alpha, iterates=tuple(iterates), converged=converged)
