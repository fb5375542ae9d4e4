"""Weighted Poincare constants for piecewise-constant weights, and the
improved rate they give, each by bisecting an exact eigenvalue count.

A weight is a profile: pieces (x_i, w_i), w_i > 0 on (x_{i-1}, x_i], with
x_0 = 0 and the last x_i = 2 pi. The sharp constant in

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

The bisection runs over the window that two Rayleigh bounds prove to hold
c_min:

- lower end, 1/max w: int f^2 w <= max w int f^2 <= max w int f'^2, the
  second step Wirtinger's inequality;
- upper end, the smaller Rayleigh quotient of sin x and cos x, which have
  zero mean: pi / max(int w sin^2, int w cos^2), summed piece by piece in
  closed form. For two halves int w sin^2 = int w cos^2 = pi (w1 + w2)/2,
  with int w sin cos = 0, so there the two smallest eigenvalues (a close
  pair among them) lie at or below 2/(w1 + w2).

A constant weight closes the window to the point 1/w, the double eigenvalue
that is also a Dirichlet eigenvalue, and it is returned with no count.

The improved rate is the largest admissible alpha, alpha <= theta - theta^2
C^2_{w_alpha}/4, i.e. c_min(w_alpha) >= lambda = theta^2/(4 (theta - alpha)):
one count, N_c(lambda; w_alpha) = 0. That count sees only lambda w_alpha =
(theta^2/4) v, v = (s - alpha)^2/((theta - alpha)(2 s - theta - alpha)), and
with a = theta - alpha, b = s - theta, d ln v/d alpha = 1/a + 1/(a + 2b) -
2/(a + b) >= 0 by convexity of 1/x. So v rises with alpha pointwise, N_c does
not fall, and the admissible alpha form one interval, whose end is the one
fixed point of the paper's iteration alpha -> theta - theta^2 C^2_{w_alpha}/4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import NumericalError, ValidationError

#: the bisection stops once its bracket is at most this wide, relative to its upper end
_ROOT_RTOL = 1e-12
#: close_root_flag is N_c(c_min + w) >= 2, w = max(_CLOSE_ROOT_WINDOW, _CLOSE_ROOT_ULPS ulp of
#: c_min): past c_min ~ 5e12 the absolute window alone rounds away
_CLOSE_ROOT_WINDOW = 1e-3
_CLOSE_ROOT_ULPS = 8
#: (1 - sin x / x) / x^2 below x = 1, summed from its series: sum (-x^2)^n / (2n + 3)!
_SERIES = tuple(1.0 / math.factorial(2 * n + 3) for n in range(9))


@dataclass(frozen=True)
class PoincareResult:
    """Smallest constrained eigenvalue and the resulting sharp constant."""

    c_min: float
    c_omega_sq: float
    close_root_flag: bool = False  # another eigenvalue, or c_min's multiplicity, within max(1e-3, 8 ulp)

    @property
    def c_omega(self) -> float:
        """The sharp constant itself, sqrt(1/c_min)."""
        return math.sqrt(self.c_omega_sq)


def _positive(y: float, dy: float) -> bool:
    """The sign of a solution at a point, or just past it where it vanishes there."""
    return y > 0.0 if y else dy > 0.0


def _count(lam: float, pieces, stage: str = "Poincaré constant") -> int:
    """N_c(lam): the constrained eigenvalues below lam, with multiplicity.

    pieces holds (length, w) pairs whose lengths sum to 2 pi. On a piece
    with k = sqrt(lam w) and x = k L, each term of the transfer map on
    (y, y', int y) is written in x and L, so that none overflows or cancels
    at any k >= 0, k = 0 included: sin(k L)/k = L sinc x, (1 - cos k L)/k^2
    = L^2 sinc(x/2)^2 / 2 and (k L - sin k L)/k^3 = L^3 (1 - sinc x)/x^2.
    The zeros of the (0, 1) solution on a piece number floor(x/pi) or one
    more, as the sign change across the piece decides. A lam w past the
    largest double is a NumericalError that names ``stage``.
    """
    y1, d1, i1 = 1.0, 0.0, 0.0
    ys, ds, i_s = 0.0, 1.0, 0.0
    yp, dp, ip = 0.0, 0.0, 0.0
    zeros = 0
    for length, w in pieces:
        k = math.sqrt(lam * w)
        if k == math.inf:
            raise NumericalError(
                f"{stage}: lambda = {lam:.6g} times w = {w:.6g} overflows on piece "
                f"{pieces.index((length, w)) + 1} of {len(pieces)}"
            )
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


def _pieces(profile) -> tuple:
    """The profile's (length, value) pairs, as _count takes them."""
    ends = [end for end, _ in profile.pieces]
    return tuple((b - a, w) for a, (b, w) in zip([0.0] + ends, profile.pieces))


def _bisect(lo: float, hi: float, past) -> tuple[list, float]:
    """Halve [lo, hi] about where past turns true, to _ROOT_RTOL of hi: the lower ends in turn, and hi."""
    lows = [lo]
    while hi - lows[-1] > _ROOT_RTOL * hi:
        mid = lows[-1] + 0.5 * (hi - lows[-1])
        if past(mid):
            hi = mid
        else:
            lows.append(mid)
    return lows, hi


def weighted_poincare(weight) -> PoincareResult:
    """c_min by bisection of N_c over its Rayleigh window; C_w^2 = 1/c_min.

    ``weight`` is a profile: anything with ``pieces``, (right end, w) pairs.
    The bisection stops once the bracket is at most _ROOT_RTOL of its upper
    end wide, and returns its midpoint. A window past the largest double is
    a NumericalError.
    """
    pieces = _pieces(weight)
    values = [w for _, w in pieces]
    sup = max(values)
    lo = 1.0 / sup
    if lo == math.inf:
        raise NumericalError(f"Poincaré constant: c_min >= 1/max w = 1/{sup:.6g} overflows")
    # int u and int u cos 2x for u = w/max w (the plain w overflows past 1e308), summed by
    # parts over the jumps u_i - u_{i+1} at the inner ends x_i, so a constant u gives 2 pi and 0
    u = [w / sup for w in values]
    inner = [(x, a, b) for (x, _), a, b in zip(weight.pieces, u, u[1:])]
    mean = 2.0 * math.pi * u[-1] + sum(x * (a - b) for x, a, b in inner)
    wave = sum(math.sin(2.0 * x) * (a - b) for x, a, b in inner) / 2.0
    # pi / max(int u sin^2, int u cos^2), as int u sin^2 = (int u - int u cos 2x)/2
    hi = 2.0 * math.pi / (mean + abs(wave)) / sup
    lows, hi = _bisect(lo, hi, lambda lam: _count(lam, pieces) >= 1)
    c_min = lows[-1] + 0.5 * (hi - lows[-1])
    window = max(_CLOSE_ROOT_WINDOW, _CLOSE_ROOT_ULPS * math.ulp(c_min))
    close = _count(c_min + window, pieces) >= 2
    return PoincareResult(c_min=c_min, c_omega_sq=1.0 / c_min, close_root_flag=close)


def weight_from_sigma(profile, theta: float, alpha: float):
    """The profile with each value s mapped to (s - alpha)^2 / (2 s - theta - alpha).

    The profile's own check refuses a weight that is not positive and finite.
    """
    pieces = []
    for end, s in profile.pieces:
        # (s - alpha) ((s - alpha)/den), den = 2 s - theta - alpha held as its half: neither the
        # square (past 1.3e154) nor 2 s (past 9e307) overflows
        half_den = s - (theta + alpha) / 2.0
        if half_den <= 0:
            raise ValidationError(f"nonpositive denominator 2*{s} - {theta} - {alpha} in the weight")
        d = s - alpha
        pieces.append((end, d * (d / 2.0 / half_den)))
    return replace(profile, pieces=tuple(pieces))


def _admissible(sigma, theta: float, alpha: float) -> bool:
    """alpha <= theta - theta^2 C^2_{w_alpha}/4, i.e. no constrained eigenvalue of w_alpha below lambda."""
    lam = theta / (4.0 * (theta - alpha)) * theta
    return _count(lam, _pieces(weight_from_sigma(sigma, theta, alpha)), "improved rate") == 0


@dataclass(frozen=True)
class ImprovedAlphaResult:
    alpha_max: float
    iterates: tuple  # the admissible lower ends of the bisection, from alpha0 up to alpha_max
    converged: bool  # an inadmissible alpha closed the bracket below its top

    @property
    def iterations(self) -> int:
        return len(self.iterates) - 1


def improved_alpha(sigma, theta: float, alpha0: float) -> ImprovedAlphaResult:
    """The largest admissible alpha (see the module docstring), bisected from an admissible alpha0.

    The bracket is [alpha0, min(theta, 2 sigma_min - theta)), past whose top
    lambda or w_alpha is not finite and positive. Each alpha costs one count,
    and the admissible lower end is returned once the bracket is at most
    _ROOT_RTOL of its top wide: the fixed point that the paper's iteration
    climbs to from alpha0 (e.g. the perturbative rate).
    """
    top = min(theta, 2.0 * sigma.sigma_min - theta)
    if not (0.0 < alpha0 < top and _admissible(sigma, theta, alpha0)):
        raise ValidationError(
            f"alpha0 = {alpha0:.6g} is inadmissible: it needs 0 < alpha0 < min(theta, 2 sigma_min - theta) = "
            f"{top:.6g} and c_min(w_alpha0) >= theta^2/(4 (theta - alpha0))"
        )
    lows, hi = _bisect(alpha0, top, lambda alpha: not _admissible(sigma, theta, alpha))
    return ImprovedAlphaResult(alpha_max=lows[-1], iterates=tuple(lows), converged=hi < top)
