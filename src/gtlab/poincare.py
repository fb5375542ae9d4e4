"""Weighted Poincare constants for two-piece weights, and the rate-improvement
fixed-point iteration they enable.

For a weight w1 on (0, pi], w2 on (pi, 2pi] the sharp constant in

    int (f - f_avg)^2 w dx <= C_w^2 int (f')^2 dx

is C_w^2 = 1/c_min, where c_min is the smallest lambda > 0 at which the 5x5
matching matrix of the constrained Euler-Lagrange problem

    u'' + lambda w u = tau,  periodic C^1 matching, zero mean

becomes singular. The matrix is filled in place, entry by entry, each from
its literal formula (no symbolic simplification), so every entry can be
audited; the determinant is evaluated by LU with partial pivoting.

Every root is refined from a sign change of det on the scan grid to one at
most 1e-12 wide, by regula falsi batched over the sign changes. Equal
weights make the smallest eigenvalue doubly degenerate (the sin/cos pair),
an even-order touch of det, and nearly equal weights split it into two
simple eigenvalues closer than one scan step; the scan finds both as valleys
of |det|, and refines each valley's bottom first.

The rate-improvement iteration scans once per iterate, and every scan after
the first is confined to a window proven to hold c_min:

- lower end, the previous c_min: while each piece of the weight is no larger
  than at the previous scan, c_min = min int f'^2 / int f^2 w is no smaller;
- upper end, 2/(w1 + w2): sin x and cos x have zero mean and
  int sin^2 w = int cos^2 w = pi (w1 + w2)/2, so the two smallest
  eigenvalues (the close-root pair among them) lie at or below it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError

_ROOT_XTOL = 1e-12
#: the scan grid is the lattice _SCAN_STEP * (i + 1), i >= 0
_SCAN_STEP = 1e-3
#: Most lattice points a scan may ask numpy for: half the float64 elements
#: an array can index (np.iinfo(np.intp).max // 8), as np.arange already
#: refuses a few dozen points below that. numpy refuses a grid past that
#: size with ValueError, not MemoryError; every grid under the bound is left
#: to the allocator.
_MAX_SCAN_POINTS = np.iinfo(np.intp).max // 16
#: |det|/scale below this at a refined local minimum counts as an even root.
_TOUCH_RTOL = 1e-8
#: half-width, relative to lambda, of the symmetric difference that locates a touch;
#: its truncation error is about half its square, relative
_TOUCH_STEP = 1e-6
_CLOSE_ROOT_WINDOW = 1e-3
#: improved_alpha stops, unconverged, after this many updates
_MAX_ITER = 100
#: a warm scan reaches this many _SCAN_STEP lattice steps beyond both ends of
#: its window, past the 50-point half-width of the touch test's local scale
_WARM_PAD = 64


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


def matching_matrix(lam, weight: TwoPieceWeight) -> np.ndarray:
    """The 5x5 matrix of periodic C^1 matching + zero-mean constraints.

    Columns weight the coefficients (c1, c2, c3, c4, tau) of the piecewise
    solution c1 sin(sqrt(lam w1) x) + c2 cos(...) + tau/(lam w1) (and the
    w2 analogue); rows are value/derivative matching at 0 and pi and the
    zero-average constraint. ``lam`` may be a scalar or an array; the result
    is (..., 5, 5).

    The result is allocated once and filled in place, entry by entry, each
    from its literal formula with no symbolic simplification, so every entry
    can be audited; the sines and cosines of the two phases and of twice the
    second are computed once each.
    """
    lam = np.asarray(lam, dtype=float)
    if np.any(lam <= 0):
        raise ValidationError("lambda must be positive")
    w1, w2 = weight.w1, weight.w2
    r1 = math.pi * np.sqrt(lam * w1)  # phase of the first piece over its half period
    r2 = math.pi * np.sqrt(lam * w2)
    sin1, cos1 = np.sin(r1), np.cos(r1)
    sin2, cos2 = np.sin(r2), np.cos(r2)
    sin22, cos22 = np.sin(2 * r2), np.cos(2 * r2)
    tau_col = (w2 - w1) / (lam * w1 * w2)
    # entries (0, 0), (2, 1), (2, 4) and (3, 4) are structural zeros
    m = np.zeros(lam.shape + (5, 5))
    m[..., 0, 1] = 1.0
    m[..., 0, 2] = -sin22
    m[..., 0, 3] = -cos22
    m[..., 0, 4] = tau_col
    m[..., 1, 0] = sin1
    m[..., 1, 1] = cos1
    m[..., 1, 2] = -sin2
    m[..., 1, 3] = -cos2
    m[..., 1, 4] = tau_col
    m[..., 2, 0] = math.sqrt(w1)
    m[..., 2, 2] = -math.sqrt(w2) * cos22
    m[..., 2, 3] = math.sqrt(w2) * sin22
    m[..., 3, 0] = math.sqrt(w1) * cos1
    m[..., 3, 1] = -math.sqrt(w1) * sin1
    m[..., 3, 2] = -math.sqrt(w2) * cos2
    m[..., 3, 3] = math.sqrt(w2) * sin2
    m[..., 4, 0] = (1.0 - cos1) / math.sqrt(w1)
    m[..., 4, 1] = sin1 / math.sqrt(w1)
    m[..., 4, 2] = (cos2 - cos22) / math.sqrt(w2)
    m[..., 4, 3] = (sin22 - sin2) / math.sqrt(w2)
    m[..., 4, 4] = math.pi * (w2 + w1) / (np.sqrt(lam) * w1 * w2)
    return m


@dataclass(frozen=True)
class PoincareResult:
    """Smallest constrained eigenvalue and the resulting sharp constant."""

    c_min: float
    c_omega_sq: float
    roots: tuple
    close_root_flag: bool = False  # another root within 1e-3 of the first

    @property
    def c_omega(self) -> float:
        """The sharp constant itself, sqrt(1/c_min)."""
        return math.sqrt(self.c_omega_sq)


def _refine(f, lo, hi, flo, fhi) -> np.ndarray:
    """A root of f in each bracket [lo, hi] whose ends f takes with opposite signs flo, fhi.

    Illinois regula falsi on every bracket at once: each step moves the end
    whose sign f shares at the secant point, and halves the value at an end
    kept twice in a row, so both ends close in. A bracket stops once it is
    at most _ROOT_XTOL wide, or is two adjacent doubles; the sign change it
    keeps certifies the root, and its midpoint is returned.
    """
    lo, hi, flo, fhi = (np.array(a, dtype=float) for a in (lo, hi, flo, fhi))
    kept = np.zeros(lo.shape)  # +1: lo was kept by the last step, -1: hi was
    while (active := np.flatnonzero((hi - lo > _ROOT_XTOL) & (np.nextafter(lo, hi) < hi))).size:
        a, b, fa, fb, k = lo[active], hi[active], flo[active], fhi[active], kept[active]
        x = (a * fb - b * fa) / (fb - fa)
        x = np.where((a < x) & (x < b), x, 0.5 * (a + b))
        fx = f(x)
        up = np.sign(fx) == np.sign(fa)  # the root lies in [x, b]
        lo[active] = np.where(up | (fx == 0.0), x, a)
        hi[active] = np.where(up, b, x)
        flo[active] = np.where(up, fx, np.where(k == 1.0, 0.5 * fa, fa))
        fhi[active] = np.where(up, np.where(k == -1.0, 0.5 * fb, fb), fx)
        kept[active] = np.where(up, -1.0, 1.0)
    return 0.5 * (lo + hi)


def weighted_poincare(
    weight: TwoPieceWeight,
    lam_max: float | None = None,
    *,
    lam_min: float = 0.0,
) -> PoincareResult:
    """Scan [lam_min, lam_max] for the first singular lambda; C_w^2 = 1/c_min.

    The scan grid is the lattice _SCAN_STEP * (i + 1), i >= 0, from its last
    point at or below lam_min, so a window of the full scan evaluates the
    same lambdas as the full scan does there; a grid that holds no point of
    the lattice is a NumericalError, and so are a grid of more than
    _MAX_SCAN_POINTS points, raised before any array is built, and a grid
    with no root on it.
    That error names the Rayleigh bound c_min >= 1/max w when the bound lies
    below the grid's first point, where no larger lam_max can help.

    _refine takes the grid's sign changes of det. Every other local minimum
    of |det| near zero is a valley, whose bottom is refined first, as the
    zero of det(lambda + h) - det(lambda - h), h = 1e-6 lambda. Where det has
    the other sign there, two roots closer than a scan step flank the bottom
    (nearly equal weights), and each is refined; where det vanishes to
    rounding, the bottom is an even-order touch (equal weights), and is the
    root. A valley whose symmetric difference keeps its sign raises.
    """
    if lam_max is None:
        lam_max = 4.0 / min(weight.w1, weight.w2)  # classical bound with margin
    # the points of np.arange(step, lam_max + step / 2, step) from index first on
    step = _SCAN_STEP
    first = max(0, math.floor(lam_min / step) - 1)
    last = (lam_max + step / 2.0 - step) / step
    if not last - first <= _MAX_SCAN_POINTS:  # an infinite lam_max fails this too
        raise NumericalError(
            f"scan grid of {last - first:.3g} points up to lam_max = {lam_max:.6g} "
            f"exceeds the bound of {_MAX_SCAN_POINTS:.3g} scan points"
        )
    count = math.ceil(last)
    if count <= first:
        raise NumericalError(
            f"empty scan grid: lam_max = {lam_max:.6g} lies below its first point {step * (first + 1):g}"
        )

    def det(lam):
        return np.linalg.det(matching_matrix(lam, weight))

    def slope(lam):
        d = det(np.concatenate([lam * (1.0 + _TOUCH_STEP), lam * (1.0 - _TOUCH_STEP)]))
        return d[: lam.size] - d[lam.size :]

    grid = step + np.arange(first, count) * step
    dets = det(grid)
    absdet = np.abs(dets)
    scale = float(np.max(absdet))
    if scale == 0.0:
        raise NumericalError("determinant vanished identically on the scan grid")

    change = np.sign(dets[:-1]) * np.sign(dets[1:]) < 0
    interior = np.flatnonzero(
        (absdet[1:-1] < absdet[:-2]) & (absdet[1:-1] < absdet[2:]) & ~change[:-1] & ~change[1:]
    ) + 1
    valley = interior[(absdet[interior] <= 1e-3 * scale) & (dets[interior] != 0.0)]
    roots = [grid[dets == 0.0]]
    lam, d = grid, dets
    if valley.size:
        lo, hi = grid[valley - 1], grid[valley + 1]
        s_lo, s_hi = np.split(slope(np.concatenate([lo, hi])), 2)
        if (flat := np.flatnonzero(np.sign(s_lo) == np.sign(s_hi))).size:
            raise NumericalError(
                "valley refinement failed: det(lambda + h) - det(lambda - h) keeps its sign "
                f"around lambda = {grid[valley[flat[0]]]:.10g}"
            )
        bottom = _refine(slope, lo, hi, s_lo, s_hi)
        d_bottom = det(bottom)
        side = np.sign(dets[valley])
        split = side * d_bottom < 0.0  # two roots, one on each side of the bottom
        local_scale = np.array([max(absdet[max(0, i - 50) : i + 50].max(), 1e-30) for i in valley])
        roots.append(bottom[~split & (side * d_bottom < _TOUCH_RTOL * local_scale)])
        # a split bottom joins the grid, where it brackets both roots
        at = np.searchsorted(grid, bottom[split])
        lam, d = np.insert(grid, at, bottom[split]), np.insert(dets, at, d_bottom[split])
    i = np.flatnonzero(np.sign(d[:-1]) * np.sign(d[1:]) < 0)
    roots.append(_refine(det, lam[i], lam[i + 1], d[i], d[i + 1]))
    roots = np.sort(np.concatenate(roots)).tolist()
    if not roots:
        bound = 1.0 / weight.sup  # c_min >= 1/max w, by Wirtinger's inequality
        advice = (
            f"the Rayleigh bound 1/max w = {bound:.6g} lies below the scan's first point {grid[0]:g}"
            if bound < grid[0]
            else "increase lam_max"
        )
        raise NumericalError(f"no singular lambda in [{lam_min}, {lam_max}]; {advice}")
    c_min = roots[0]
    close = len(roots) > 1 and roots[1] - c_min < _CLOSE_ROOT_WINDOW
    return PoincareResult(c_min=c_min, c_omega_sq=1.0 / c_min, roots=tuple(roots), close_root_flag=close)


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

    Only the first scan, at alpha0, covers (0, 4/min w]. Each later one is
    warm: it scans [c_min of the previous scan, 2/(w1 + w2)], padded by
    _WARM_PAD steps of the _SCAN_STEP lattice, on that same lattice, so it
    returns the same c_min.
    - Lower end: c_min = min int f'^2 / int f^2 w cannot fall while no piece
      of the weight grows, and that is checked before each warm scan. Along
      the iterates it holds: w_j = (sigma_j - alpha)^2 / (2 sigma_j - theta
      - alpha) decreases in alpha for sigma_j >= theta > alpha, and the
      iterates never decrease, because the cap increases in alpha.
    - Upper end: sin x and cos x have zero mean and Rayleigh quotient
      2/(w1 + w2), so the two smallest eigenvalues lie at or below it.
    A candidate whose weight exceeds the previous one on either piece (one
    below the previous alpha, which the admission slack allows) is scanned
    in full.
    """

    def scan(alpha: float, previous=None):
        """(weight, PoincareResult) at alpha, warm from the previous pair where that is proven."""
        weight = weight_from_sigma(sigma, theta, alpha)
        if previous is None or weight.w1 > previous[0].w1 or weight.w2 > previous[0].w2:
            return weight, weighted_poincare(weight)
        pad = _WARM_PAD * _SCAN_STEP
        lam_max = 2.0 / (weight.w1 + weight.w2) + pad
        return weight, weighted_poincare(weight, lam_max, lam_min=previous[1].c_min - pad)

    def cap(scanned) -> float:
        return theta - theta**2 * scanned[1].c_omega_sq / 4.0

    slack = max(10.0 * tol, 1e-9)
    current = scan(alpha0)
    current_cap = cap(current)
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
            scanned = scan(candidate, current)
        except (ValidationError, NumericalError):
            break
        candidate_cap = cap(scanned)
        if candidate <= 0.0 or candidate > candidate_cap + slack:
            break
        iterates.append(candidate)
        if abs(candidate - alpha) < tol:
            alpha = candidate
            converged = True
            break
        alpha = candidate
        current, current_cap = scanned, candidate_cap
    return ImprovedAlphaResult(alpha_max=alpha, iterates=tuple(iterates), converged=converged)
