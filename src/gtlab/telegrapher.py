"""Spectral gap of the damped wave (telegrapher) form of the two-velocity
system, and the optimal-rate bundle it yields for two-piece relaxation.

After rescaling the torus to unit length, sigma~(xi) = pi * sigma(2 pi xi),
the nonzero eigenvalues gamma of the second-order operator solve

    det M(gamma) = -sin(t1/2) sin(t2/2) (1 + (t2/t1)^2)
                   + 2 (t2/t1) (cos(t1/2) cos(t2/2) - 1) = 0,

with t_j = sqrt(gamma (2 sigma_j - gamma)) on the principal branch. The
determinant flips sign under t_j -> -t_j, so the branch choice does not move
the zero set. The optimal rate is (1/pi) min(|sigma~|_L1, gap).

The root search is certified: it counts the roots in its strip, then finds
exactly that many. H(gamma) = t1 t2 det M(gamma) is even in t1 and in t2,
hence entire in gamma, and the argument principle (Delves & Lyness, Math.
Comp. 1967) counts its zeros along the strip's boundary. A real-axis scan and
Newton from a seed grid, refined while roots are missing, then locate them.
H also vanishes at gamma = 0 (double) and at 2 sigma_2, which are not
eigenvalues, and det M breaks down at 2 sigma_j; small squares around these
points are cut out of the strip, for the count and the roots alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .errors import NumericalError, ValidationError
from .profiles import as_profile
from .rates import SOURCE_BERNARD_SALVARANI, RateReport

_DEGENERATE_TOL = 1e-12
#: half-side of the squares cut out of the strip around gamma = 0 and
#: 2 sigma_j (the piecewise solution turns linear there and the formula
#: breaks down).
_DEGENERATE_EXCLUSION = 1e-6
_ROOT_DET_TOL = 1e-9
_EPS = float(np.finfo(float).eps)
#: a sample of H is trusted only if |H| exceeds its rounding-error bound this many times
_TRUST = 100.0
#: argument-principle sampling: initial spacing along the contour, the largest
#: phase step left unbisected, and the limits that stop a contour through a zero
_SAMPLE_SPACING = 0.1
_MAX_PHASE_STEP = math.pi / 4.0
_MIN_SEGMENT = 1e-11
_MAX_SAMPLES = 2_000_000
#: half-sides of the squares a root's multiplicity is counted on, tried in turn
_MULTIPLICITY_SQUARES = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2)
#: the Newton seed grid doubles up to this many points a side while roots are missing
_SEED_CAP = 200
#: Newton stops a seed once its step is below _NEWTON_TOL, or after _NEWTON_ITERS steps
_NEWTON_TOL = 1e-12
_NEWTON_ITERS = 60


@dataclass(frozen=True)
class TelegrapherProblem:
    """Rescaled two-piece damping: sigma1 on (0, 1/2], sigma2 on (1/2, 1]."""

    sigma1: float
    sigma2: float
    re_max: float | None = None
    im_max: float | None = None

    def __post_init__(self):
        if self.sigma1 <= 0 or self.sigma2 <= 0:
            raise ValidationError(
                f"damping values must be positive, got ({self.sigma1}, {self.sigma2})"
            )
        if self.re_max is None:
            object.__setattr__(self, "re_max", 2.0 * min(self.sigma1, self.sigma2))
        if self.im_max is None:
            object.__setattr__(self, "im_max", 4.0 * max(self.sigma1, self.sigma2))
        if self.re_max <= 0 or self.im_max <= 0:
            raise ValidationError("search strip must have positive extent")

    @property
    def l1_norm(self) -> float:
        """L1 norm of the rescaled damping over the unit torus."""
        return 0.5 * (self.sigma1 + self.sigma2)


def rescale_sigma(sigma) -> TelegrapherProblem:
    """sigma~ = pi * sigma(2 pi xi) for a constant or two-piece profile."""
    profile = as_profile(sigma)
    s1, s2 = profile.as_two_piece()
    return TelegrapherProblem(math.pi * s1, math.pi * s2)


def _tau(gamma, sigma_j):
    return np.sqrt(gamma * (2.0 * sigma_j - gamma) + 0j)


@dataclass(frozen=True)
class _HValues:
    """H = t1 t2 det M at a batch of gammas, with what the search needs of it."""

    t1: np.ndarray
    t2: np.ndarray
    h: np.ndarray
    dh: np.ndarray  # dH/dgamma
    err: np.ndarray  # first-order bound on the rounding error of h

    @property
    def det(self) -> np.ndarray:
        """det M = H / (t1 t2), NaN on the degenerate branch t1 = 0."""
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            return np.where(np.abs(self.t1) < _DEGENERATE_TOL, np.nan, self.h / (self.t1 * self.t2))


def _h_batch(gammas, problem: TelegrapherProblem) -> _HValues:
    """H(gamma) = t1 t2 det M(gamma) = -P1 P2 - sinc1 t2^2 P2 - 2 t2^2 (sp^2 + sm^2).

    Here P_j = t_j sin(t_j/2), sinc1 = sin(t1/2)/t1 and sp, sm =
    sin((t1 +- t2)/4); the last bracket is 1 - cos(t1/2) cos(t2/2) written
    without cancellation. Every bracket is even in t1 and in t2, so H is
    entire in gamma and the branch of t_j never matters. The derivative
    uses u_j = t_j dH/dt_j and dt_j/dgamma = (sigma_j - gamma)/t_j. The
    rounding bound is machine epsilon times the sizes of the three terms and
    of u1, u2, which carry the rounding of t_j itself.
    """
    g = np.asarray(gammas, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        q1 = g * (2.0 * problem.sigma1 - g)
        q2 = g * (2.0 * problem.sigma2 - g)
        t1, t2 = np.sqrt(q1), np.sqrt(q2)
        s1, c1 = np.sin(t1 / 2.0), np.cos(t1 / 2.0)
        s2, c2 = np.sin(t2 / 2.0), np.cos(t2 / 2.0)
        sp, cp = np.sin((t1 + t2) / 4.0), np.cos((t1 + t2) / 4.0)
        sm, cm = np.sin((t1 - t2) / 4.0), np.cos((t1 - t2) / 4.0)
        sinc1 = 0.5 * np.sinc(t1 / (2.0 * math.pi))  # finite at t1 = 0
        p1, p2 = t1 * s1, t2 * s2
        a, b, c = p1 * p2, sinc1 * q2 * p2, 2.0 * q2 * (sp**2 + sm**2)
        u1 = -(
            (p1 + q1 * c1 / 2.0) * p2
            + (c1 / 2.0 - sinc1) * q2 * p2
            + q2 * t1 * (sp * cp + sm * cm)
        )
        u2 = -(
            p1 * (p2 + q2 * c2 / 2.0)
            + sinc1 * q2 * (3.0 * p2 + q2 * c2 / 2.0)
            + 2.0 * c
            + q2 * t2 * (sp * cp - sm * cm)
        )
        dh = u1 * (problem.sigma1 - g) / q1 + u2 * (problem.sigma2 - g) / q2
        err = _EPS * (np.abs(a) + np.abs(b) + np.abs(c) + np.abs(u1) + np.abs(u2))
        return _HValues(t1, t2, -a - b - c, dh, err)


def det_M_gamma(gamma: complex, problem: TelegrapherProblem) -> complex:
    """Closed-form matching determinant; errors on the degenerate branch t1 = 0."""
    v = _h_batch(gamma, problem)
    if abs(v.t1) < _DEGENERATE_TOL:
        raise NumericalError(
            f"gamma = {gamma} hits the degenerate branch tau1 = 0 (gamma = 0 or 2*sigma1)"
        )
    return complex(v.det)


def matching_matrix(gamma: complex, problem: TelegrapherProblem) -> np.ndarray:
    """The printed 4x4 C^1-matching matrix; det equals det_M_gamma."""
    t1 = _tau(gamma, problem.sigma1)
    t2 = _tau(gamma, problem.sigma2)
    if abs(t1) < _DEGENERATE_TOL:
        raise NumericalError("degenerate branch tau1 = 0")
    r = t2 / t1
    return np.array(
        [
            [1.0, 0.0, -np.cos(t2), -np.sin(t2)],
            [0.0, 1.0, r * np.sin(t2), -r * np.cos(t2)],
            [np.cos(t1 / 2.0), np.sin(t1 / 2.0), -np.cos(t2 / 2.0), -np.sin(t2 / 2.0)],
            [np.sin(t1 / 2.0), -np.cos(t1 / 2.0), -r * np.sin(t2 / 2.0), r * np.cos(t2 / 2.0)],
        ],
        dtype=complex,
    )


@dataclass(frozen=True)
class GapResult:
    """Smallest real part over the eigenvalues found in the search strip.

    ``count`` is the number of eigenvalues in the strip, multiplicity
    included, by the argument principle; ``roots`` holds every one of them
    once.
    """

    gap: float
    eigenvalue: complex
    roots: tuple
    count: int
    on_boundary: bool = False  # minimum sits at the strip edge: widen re_max

    @property
    def minimiser_is_real(self) -> bool:
        return abs(self.eigenvalue.imag) < 1e-9


def _zeros_inside(vertices: list, problem: TelegrapherProblem) -> int:
    """Zeros of H inside a counter-clockwise polygon, by the argument principle.

    arg H is sampled along the edges, and every step whose phase change
    exceeds pi/4 is bisected until none does; the winding number is the sum
    of the steps over 2 pi. A sample where |H| does not stand clear of its
    rounding error, or a step that cannot be bisected further, raises.
    """
    pieces = []
    for a, b in zip(vertices, vertices[1:] + vertices[:1]):
        n = max(4, math.ceil(abs(b - a) / _SAMPLE_SPACING))
        pieces.append(a + (b - a) * np.arange(n) / n)
    z = np.concatenate(pieces + [np.array(vertices[:1], dtype=complex)])
    v = _h_batch(z, problem)
    h, err = v.h, v.err
    while True:
        lost = ~(np.abs(h) > _TRUST * err)
        if lost.any():
            raise NumericalError(
                "argument-principle count failed: H is lost in rounding "
                f"near gamma = {z[np.argmax(lost)]:.6g}"
            )
        if z.size > _MAX_SAMPLES:
            raise NumericalError(
                f"argument-principle count failed: over {_MAX_SAMPLES} samples on one contour"
            )
        step = np.angle(h[1:] / h[:-1])
        coarse = np.flatnonzero(np.abs(step) > _MAX_PHASE_STEP)
        if coarse.size == 0:
            return round(step.sum() / (2.0 * math.pi))
        width = np.abs(z[coarse + 1] - z[coarse])
        if width.min() < _MIN_SEGMENT:
            raise NumericalError(
                "argument-principle count failed: H vanishes on the contour "
                f"near gamma = {z[coarse[np.argmin(width)]]:.6g}"
            )
        mid = 0.5 * (z[coarse] + z[coarse + 1])
        v = _h_batch(mid, problem)
        z = np.insert(z, coarse + 1, mid)
        h = np.insert(h, coarse + 1, v.h)
        err = np.insert(err, coarse + 1, v.err)


def _square(center: complex, half: float) -> list:
    return [center + half * complex(a, b) for a, b in ((-1, -1), (1, -1), (1, 1), (-1, 1))]


def _outside_square(z: np.ndarray, center: complex, half: float) -> np.ndarray:
    return z[(np.abs(z.real - center.real) >= half) | (np.abs(z.imag - center.imag) >= half)]


def _cutouts(problem: TelegrapherProblem) -> list:
    """0 and 2 sigma_j in increasing order, one point for any two closer than a cut-out."""
    points = []
    for p in sorted((0.0, 2.0 * problem.sigma1, 2.0 * problem.sigma2)):
        if not points or p - points[-1] > 2.0 * _DEGENERATE_EXCLUSION:
            points.append(p)
    return points


def _in_strip(z: np.ndarray, problem: TelegrapherProblem) -> np.ndarray:
    rho = _DEGENERATE_EXCLUSION
    ok = (z.real > 0.0) & (z.real < problem.re_max) & (np.abs(z.imag) <= problem.im_max)
    for p in _cutouts(problem):
        ok &= (np.abs(z.real - p) >= rho) | (np.abs(z.imag) >= rho)
    return ok


def _strip_count(problem: TelegrapherProblem) -> int:
    """Eigenvalues in the search strip, multiplicity included.

    The contour is the strip's rectangle, notched around 0 on its left edge
    and around a cut-out point on its right edge; a cut-out point inside the
    strip has its square's zeros subtracted.
    """
    rho = _DEGENERATE_EXCLUSION
    b, y = problem.re_max, problem.im_max
    right, holes = [b - 1j * y], []
    for p in _cutouts(problem)[1:]:
        if abs(p - b) <= rho:
            right += [b - 1j * rho, p - rho - 1j * rho, p - rho + 1j * rho, b + 1j * rho]
        elif p < b:
            holes.append(p)
    left = [b + 1j * y, 1j * y, 1j * rho, rho + 1j * rho, rho - 1j * rho, -1j * rho]
    count = _zeros_inside([-1j * y] + right + left, problem)
    return count - sum(_zeros_inside(_square(p, rho), problem) for p in holes)


def _newton(seeds: np.ndarray, problem: TelegrapherProblem, known: list) -> np.ndarray:
    """Newton on H from every seed, deflated by the known (root, multiplicity, _) triples.

    Deflation divides H by prod (gamma - r)^m, so no seed returns to a root
    already found. A seed leaves the active set once its step is below
    _NEWTON_TOL, and every seed stops after _NEWTON_ITERS steps.
    """
    z = seeds.astype(complex)
    active = np.arange(z.size)
    for _ in range(_NEWTON_ITERS):
        if not active.size:
            break
        za = z[active]
        v = _h_batch(za, problem)
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            rate = v.dh / v.h
            for r, m, _ in known:
                rate -= m / (za - r)
            step = 1.0 / rate
        moving = np.isfinite(step)
        z[active[moving]] -= step[moving]
        active = active[moving & (np.abs(step) >= _NEWTON_TOL)]
    return z


def _multiplicity(root: complex, problem: TelegrapherProblem) -> tuple:
    """(zeros of H in a square around root, its half-side), on the smallest square that counts.

    A root of multiplicity m is fixed only to about eps^(1/m), and near it H
    is lost in rounding, so the square grows tenfold until H stands clear of
    its rounding error all round.
    """
    for half in _MULTIPLICITY_SQUARES:
        try:
            return _zeros_inside(_square(root, half), problem), half
        except NumericalError:
            continue
    raise NumericalError(
        f"root search: cannot count the multiplicity of the root near gamma = {root:.6g}"
    )


def _add_roots(cand: np.ndarray, problem: TelegrapherProblem, known: list) -> list:
    """The known (root, multiplicity, half-side) triples, extended by the candidates.

    A candidate must lie in the strip and be a zero: |det M| < 1e-9, or H
    within its rounding error where det M is too large for an absolute
    test. The best (smallest |H| against its rounding error) stands for
    every candidate in the square its multiplicity is counted on. A
    candidate inside a known square, or with no zero in its own, adds
    nothing.
    """
    cand = cand[np.isfinite(cand)]
    cand = cand[_in_strip(cand, problem)]
    v = _h_batch(cand, problem)
    with np.errstate(invalid="ignore", divide="ignore"):
        ok = (np.abs(v.det) < _ROOT_DET_TOL) | (np.abs(v.h) <= _TRUST * v.err)
        rest = cand[ok][np.argsort(np.abs(v.h[ok]) / v.err[ok])]
    found = list(known)
    for r, _, half in known:
        rest = _outside_square(rest, r, half)
    while rest.size:
        r = complex(rest[0])
        m, half = _multiplicity(r, problem)
        rest = _outside_square(rest, r, half)
        if m > 0:
            found.append((r, m, half))
    return found


def telegrapher_gap(
    problem: TelegrapherProblem,
    seeds: tuple[int, int] = (30, 30),
) -> GapResult:
    """Find every eigenvalue in the strip 0 < Re < re_max, |Im| <= im_max.

    1. Count them, multiplicity included, by the argument principle on H.
    2. Locate them: real roots by a dense scan with bisection (det M is real
       on the real axis inside the strip), complex ones by Newton on H from
       a ``seeds`` grid. Each root's multiplicity is counted on a small
       square around it. While the roots found fall short of the count, the
       grid doubles, up to 200 x 200, and Newton is deflated by the roots
       already found.
    3. Anything but exactly the counted number raises NumericalError, as
       does an empty strip.

    Squares of half-side 1e-6 around gamma = 0 and 2 sigma_j are cut out of
    the strip, for the count and the roots alike.
    """
    if min(seeds) < 1:
        raise ValidationError(f"seeds must be positive, got {seeds}")
    count = _strip_count(problem)
    if count == 0:
        raise NumericalError(
            "no eigenvalues found in the search strip; enlarge re_max/im_max"
        )

    # real-axis scan: det is real for 0 < gamma < 2 min(sigma)
    re_cap = min(problem.re_max, 2.0 * min(problem.sigma1, problem.sigma2))
    xs = np.linspace(1e-6, re_cap - 1e-9, 4001)
    ds = _h_batch(xs, problem).det.real
    sign_change = np.nonzero(np.sign(ds[:-1]) * np.sign(ds[1:]) < 0)[0]
    real_roots = [
        brentq(lambda g: det_M_gamma(complex(g), problem).real, xs[i], xs[i + 1], xtol=1e-14)
        for i in sign_change
    ]
    roots = _add_roots(np.array(real_roots, dtype=complex), problem, [])

    # Newton over the complex strip, on finer seed grids until the count is met
    nre, nim = seeds
    cap = (max(nre, _SEED_CAP), max(nim, _SEED_CAP))
    while sum(m for _, m, _ in roots) < count:
        re_seeds = np.linspace(1e-3, problem.re_max, nre)
        im_seeds = np.linspace(-problem.im_max, problem.im_max, nim)
        grid = (re_seeds[:, None] + 1j * im_seeds[None, :]).ravel()
        roots = _add_roots(_newton(grid, problem, roots), problem, roots)
        if (nre, nim) == cap:
            break
        nre, nim = min(2 * nre, cap[0]), min(2 * nim, cap[1])
    found = sum(m for _, m, _ in roots)
    if found != count:
        raise NumericalError(
            f"root search: found {found} of {count} counted roots "
            f"with Newton from seed grids up to {nre}x{nim}"
        )
    located = sorted((r for r, _, _ in roots), key=lambda c: (c.real, c.imag))
    best = min(located, key=lambda c: c.real)
    return GapResult(
        gap=best.real,
        eigenvalue=best,
        roots=tuple(located),
        count=count,
        on_boundary=best.real > problem.re_max - 1e-3,
    )


def bs_rate(sigma) -> RateReport:
    """Optimal-rate bundle (1/pi) min(|sigma~|_L1, gap) for a two-piece profile."""
    problem = rescale_sigma(sigma)
    result = telegrapher_gap(problem)
    rate = min(problem.l1_norm, result.gap) / math.pi
    return RateReport(source=SOURCE_BERNARD_SALVARANI, rate=rate)
