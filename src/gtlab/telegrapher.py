"""Spectral gap of the damped wave (telegrapher) form of the two-velocity
system, and the optimal decay rate it yields for two-piece relaxation.

After rescaling the torus to unit length, sigma~(xi) = pi * sigma(2 pi xi),
v = exp(-gamma t) phi(xi) solves v_tt + 2 sigma~ v_t = v_xixi exactly when
phi'' + q phi = 0 with q = gamma (2 sigma~ - gamma). On the piece j, of
length 1/2 with sigma~ = sigma_j and q_j = t_j^2, (phi, phi') is carried
across by the transfer matrix

    T_j = [[C_j, S_j], [-q_j S_j, C_j]],   C_j = cos(t_j/2),  S_j = sin(t_j/2)/t_j,

of determinant 1. So a periodic phi exists, and gamma is an eigenvalue,
exactly where

    D(gamma) = 2 - tr(T_2 T_1) = 2 (1 - C_1 C_2) + (q_1 + q_2) S_1 S_2 = 0.

Every entry of T_j is even in t_j, so D is entire in gamma, real on the real
axis, and the branch of t_j never matters. D(0) = 0 is the mass mode. The
optimal rate is (1/pi) min(|sigma~|_L1, gap): ``rescale_sigma``, then
``telegrapher_gap``, then ``optimal_rate``.

The root search is certified: it counts the zeros of D in its strip by the
argument principle (Delves & Lyness, Math. Comp. 1967), then finds exactly
that many, all by Newton on D: from the sign changes of a real-axis scan,
then from a seed grid, refined while roots are missing. Two squares of
half-side 1e-6, or re_max/4 if smaller, are left out of the strip, for the
count and the roots alike: one around gamma = 0, the mass mode, and one
around the right edge's real point gamma = re_max, where a constant profile
has the simple zero 2 sigma~ (the k = 0 flux mode) at the default re_max.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError

#: half-side of the squares left out of the strip around gamma = 0 and gamma = re_max
_EXCLUSION = 1e-6
_ROOT_TOL = 1e-9
_EPS = float(np.finfo(float).eps)
#: a sample of D is trusted only if |D| exceeds its rounding-error bound this many times
_TRUST = 100.0
#: argument-principle sampling: initial spacing along the contour, the largest
#: phase step left unbisected (measured, and predicted from D'/D), and the
#: limits that stop a contour through a zero
_SAMPLE_SPACING = 0.1
_MAX_PHASE_STEP = math.pi / 4.0
#: near a centre the initial spacing is at most this fraction of the distance to it,
#: so a simple zero there turns the phase by at most this much per step
_GRADING = 0.5
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
        if not (math.isfinite(self.re_max) and math.isfinite(self.im_max)):  # sigma past 1.4e307
            raise NumericalError(
                f"the search strip of damping ({self.sigma1:g}, {self.sigma2:g}) overflows: "
                f"re_max = {self.re_max:g}, im_max = {self.im_max:g}"
            )
        if self.re_max <= 0 or self.im_max <= 0:
            raise ValidationError("search strip must have positive extent")

    @property
    def l1_norm(self) -> float:
        """L1 norm of the rescaled damping over the unit torus."""
        return 0.5 * (self.sigma1 + self.sigma2)


def rescale_sigma(profile) -> TelegrapherProblem:
    """sigma~ = pi * sigma(2 pi xi) for a constant or two-piece RelaxationProfile."""
    s1, s2 = profile.as_two_piece()
    return TelegrapherProblem(math.pi * s1, math.pi * s2)


def _piece(z):
    """(cos z, sin z / (2 z), (sin z - z cos z) / z^3) at z = t_j / 2: C_j, S_j and g.

    Near z = 0, where the quotients cancel or divide by zero, S_j and g
    come from their series.
    """
    c, s = np.cos(z), np.sin(z)
    small = np.abs(z) < 1e-2
    w = np.where(small, 1.0, z)
    z2 = z * z
    series_s = 0.5 - z2 / 12.0 + z2 * z2 / 240.0
    series_g = 1.0 / 3.0 - z2 / 30.0 + z2 * z2 / 840.0
    return (
        c,
        np.where(small, series_s, s / (2.0 * w)),
        np.where(small, series_g, (s - w * c) / w**3),
    )


def _d_batch(gammas, problem: TelegrapherProblem):
    """(D, dD/dgamma, a first-order bound on the rounding error of D) at a batch of gammas.

    1 - C_1 C_2 is evaluated as sin^2((t1 + t2)/4) + sin^2((t1 - t2)/4),
    which does not cancel. The derivative goes through the partials
    D_j = dD/dq_j, with dC_j/dq_j = -S_j/4, dS_j/dq_j = -g(t_j/2)/16 and
    dq_j/dgamma = 2 (sigma_j - gamma); all are finite at q_j = 0. The
    rounding bound is machine epsilon times the sizes of the two terms of D
    and |D_j| r_j, where eps r_j bounds the rounding of q_j (|gamma| (2 sigma_j
    + |gamma|)) and of t_j = sqrt(q_j) carried back to q_j (2 |q_j|).
    """
    gam = np.asarray(gammas, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        q1 = gam * (2.0 * problem.sigma1 - gam)
        q2 = gam * (2.0 * problem.sigma2 - gam)
        z1, z2 = np.sqrt(q1) / 2.0, np.sqrt(q2) / 2.0
        c1, s1, g1 = _piece(z1)
        c2, s2, g2 = _piece(z2)
        a = 2.0 * (np.sin((z1 + z2) / 2.0) ** 2 + np.sin((z1 - z2) / 2.0) ** 2)
        b = (q1 + q2) * s1 * s2
        d1 = c2 * s1 / 2.0 + s1 * s2 - (q1 + q2) * s2 * g1 / 16.0
        d2 = c1 * s2 / 2.0 + s1 * s2 - (q1 + q2) * s1 * g2 / 16.0
        dd = 2.0 * ((problem.sigma1 - gam) * d1 + (problem.sigma2 - gam) * d2)
        r1 = np.abs(gam) * (2.0 * problem.sigma1 + np.abs(gam)) + 2.0 * np.abs(q1)
        r2 = np.abs(gam) * (2.0 * problem.sigma2 + np.abs(gam)) + 2.0 * np.abs(q2)
        err = _EPS * (np.abs(a) + np.abs(b) + r1 * np.abs(d1) + r2 * np.abs(d2))
        return a + b, dd, err


def characteristic(gamma: complex, problem: TelegrapherProblem) -> complex:
    """D(gamma) = 2 - tr(T_2 T_1), zero exactly at the eigenvalues, the mass mode 0 among them."""
    return complex(_d_batch(gamma, problem)[0])


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

    @property
    def minimiser_is_real(self) -> bool:
        return abs(self.eigenvalue.imag) < 1e-9


def _edge_samples(a: complex, b: complex, centres: tuple) -> np.ndarray:
    """Samples of the edge [a, b): evenly spaced, at most _SAMPLE_SPACING apart,
    and graded geometrically toward the point of the edge nearest each centre.

    Around that point, at distance d from the centre, the samples are
    _GRADING d apart out to d, then _GRADING times their offset from it,
    until that reaches _SAMPLE_SPACING. Every step is then at most _GRADING
    times the distance of its nearer end from each centre.
    """
    length = abs(b - a)
    n = max(4, math.ceil(length / _SAMPLE_SPACING))
    arc = [length * np.arange(n) / n]
    unit = (b - a) / length
    for c in centres:
        foot = min(max(((c - a) / unit).real, 0.0), length)
        d = abs(a + unit * foot - c)
        if _GRADING * d >= _SAMPLE_SPACING:
            continue
        rounds = math.ceil(math.log(_SAMPLE_SPACING / (_GRADING * d)) / math.log1p(_GRADING))
        offsets = np.concatenate(
            [
                _GRADING * d * np.arange(math.ceil(1.0 / _GRADING)),
                d * (1.0 + _GRADING) ** np.arange(rounds + 1),
            ]
        )
        arc += [foot - offsets, foot + offsets]
    arc = np.unique(np.concatenate(arc))
    return a + unit * arc[(arc >= 0.0) & (arc < length)]


def _zeros_inside(vertices: list, problem: TelegrapherProblem, centres: tuple = ()) -> int:
    """Zeros of D inside a counter-clockwise polygon, by the argument principle.

    arg D is sampled along the edges (graded toward ``centres``, see
    _edge_samples), and every step is bisected until its
    phase change, and its length times the larger |D'/D| at its two ends,
    are both at most pi/4; the winding number is the sum of the steps over
    2 pi. The second test sees a pair of zeros close to an edge, whose
    2 pi turn can fall between two samples. A sample where |D| does not
    stand clear of its rounding error, or a step that cannot be bisected
    further, raises. So does a contour of more than _MAX_SAMPLES samples,
    checked on the evenly spaced samples before any is built, and again
    after each round of bisection.
    """
    edges = list(zip(vertices, vertices[1:] + vertices[:1]))
    too_many = f"argument-principle count failed: over {_MAX_SAMPLES} samples on one contour"
    if sum(math.ceil(abs(b - a) / _SAMPLE_SPACING) for a, b in edges) > _MAX_SAMPLES:
        raise NumericalError(too_many)
    pieces = [_edge_samples(a, b, centres) for a, b in edges]
    z = np.concatenate(pieces + [np.array(vertices[:1], dtype=complex)])
    d, dd, err = _d_batch(z, problem)
    while True:
        lost = ~(np.abs(d) > _TRUST * err)
        if lost.any():
            raise NumericalError(
                "argument-principle count failed: D is lost in rounding "
                f"near gamma = {z[np.argmax(lost)]:.6g}"
            )
        if z.size > _MAX_SAMPLES:
            raise NumericalError(too_many)
        step = np.angle(d[1:] / d[:-1])
        slope = np.abs(dd / d)
        width = np.abs(np.diff(z))
        turn = width * np.maximum(slope[1:], slope[:-1])
        coarse = np.flatnonzero((np.abs(step) > _MAX_PHASE_STEP) | (turn > _MAX_PHASE_STEP))
        if coarse.size == 0:
            return round(step.sum() / (2.0 * math.pi))
        if width[coarse].min() < _MIN_SEGMENT:
            raise NumericalError(
                "argument-principle count failed: D vanishes on the contour "
                f"near gamma = {z[coarse[np.argmin(width[coarse])]]:.6g}"
            )
        mid = 0.5 * (z[coarse] + z[coarse + 1])
        dm, ddm, errm = _d_batch(mid, problem)
        z = np.insert(z, coarse + 1, mid)
        d = np.insert(d, coarse + 1, dm)
        dd = np.insert(dd, coarse + 1, ddm)
        err = np.insert(err, coarse + 1, errm)


def _square(center: complex, half: float) -> list:
    return [center + half * complex(a, b) for a, b in ((-1, -1), (1, -1), (1, 1), (-1, 1))]


def _outside_square(z: np.ndarray, center: complex, half: float) -> np.ndarray:
    return z[(np.abs(z.real - center.real) >= half) | (np.abs(z.imag - center.imag) >= half)]


def _notch(problem: TelegrapherProblem) -> float:
    """Half-side of the squares left out around 0 and re_max: _EXCLUSION, or re_max/4 if smaller.

    Capped so that the notches never meet: on a narrower strip they would
    overlap, and the contour would wind backwards, counting negatively.
    """
    return min(_EXCLUSION, problem.re_max / 4.0)


def _in_strip(z: np.ndarray, problem: TelegrapherProblem) -> np.ndarray:
    ok = (z.real > 0.0) & (z.real < problem.re_max) & (np.abs(z.imag) <= problem.im_max)
    rho = _notch(problem)
    for p in (0.0, problem.re_max):
        ok &= (np.abs(z.real - p) >= rho) | (np.abs(z.imag) >= rho)
    return ok


def _strip_count(problem: TelegrapherProblem) -> int:
    """Eigenvalues in the search strip, multiplicity included.

    The contour is the strip's rectangle, notched inwards around 0 on its
    left edge and around re_max on its right edge. Its samples are graded
    toward both notches, where D may vanish (the mass mode at 0, and the
    flux mode of a constant profile at re_max), so one batch of D resolves
    the phase there.
    """
    rho, b, y = _notch(problem), problem.re_max, problem.im_max
    right = [b - 1j * y, b - 1j * rho, b - rho - 1j * rho, b - rho + 1j * rho, b + 1j * rho]
    left = [b + 1j * y, 1j * y, 1j * rho, rho + 1j * rho, rho - 1j * rho, -1j * rho]
    return _zeros_inside([-1j * y] + right + left, problem, centres=(0.0, complex(b)))


def _newton(seeds: np.ndarray, problem: TelegrapherProblem, known: list) -> np.ndarray:
    """Newton on D from every seed, deflated by the known (root, multiplicity, _) triples.

    Deflation divides D by prod (gamma - r)^m, so no seed returns to a root
    already found. A seed leaves the active set once its step is below
    _NEWTON_TOL, and every seed stops after _NEWTON_ITERS steps.
    """
    z = seeds.astype(complex)
    active = np.arange(z.size)
    for _ in range(_NEWTON_ITERS):
        if not active.size:
            break
        za = z[active]
        d, dd, _ = _d_batch(za, problem)
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            rate = dd / d
            for r, m, _ in known:
                rate -= m / (za - r)
            step = 1.0 / rate
        moving = np.isfinite(step)
        z[active[moving]] -= step[moving]
        active = active[moving & (np.abs(step) >= _NEWTON_TOL)]
    return z


def _multiplicity(root: complex, problem: TelegrapherProblem) -> tuple:
    """(zeros of D in a square around root, its half-side), on the smallest square that counts.

    A root of multiplicity m is fixed only to about eps^(1/m), and near it D
    is lost in rounding, so the square grows tenfold until D stands clear of
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

    A candidate must lie in the strip and be a zero: |D| < 1e-9, or |D|
    within its rounding error where D is too large for an absolute test.
    The best (smallest |D| against its rounding error) stands for every
    candidate in the square its multiplicity is counted on. A candidate
    inside a known square, or with no zero in its own, adds nothing.
    """
    cand = cand[np.isfinite(cand)]
    cand = cand[_in_strip(cand, problem)]
    d, _, err = _d_batch(cand, problem)
    with np.errstate(invalid="ignore", divide="ignore"):
        ok = (np.abs(d) < _ROOT_TOL) | (np.abs(d) <= _TRUST * err)
        rest = cand[ok][np.argsort(np.abs(d[ok]) / err[ok])]
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

    1. Count them, multiplicity included, by the argument principle on D.
    2. Locate them by Newton on D: from the sign changes of a dense real-axis
       scan (D is real there), then from a ``seeds`` grid over the strip.
       Each root's multiplicity is counted on a small square around it.
       While the roots found fall short of the count, the grid doubles, up
       to 200 x 200, and Newton is deflated by the roots already found.
    3. Anything but exactly the counted number raises NumericalError, as
       does an empty strip.

    Squares of half-side min(1e-6, re_max/4) around gamma = 0 and
    gamma = re_max are left out of the strip, for the count and the roots
    alike.
    """
    if min(seeds) < 1:
        raise ValidationError(f"seeds must be positive, got {seeds}")
    count = _strip_count(problem)
    if count == 0:
        raise NumericalError("no eigenvalues found in the search strip; enlarge re_max/im_max")

    xs = np.linspace(_notch(problem), problem.re_max - _notch(problem), 4001)
    ds = _d_batch(xs, problem)[0].real
    change = np.flatnonzero(np.sign(ds[:-1]) * np.sign(ds[1:]) < 0)
    roots = _add_roots(_newton(0.5 * (xs[change] + xs[change + 1]), problem, []), problem, [])

    # then over the complex strip, on finer seed grids until the count is met
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
    best = located[0]  # the smallest real part
    return GapResult(best.real, best, tuple(located), count)


def optimal_rate(problem: TelegrapherProblem, result: GapResult) -> float:
    """The optimal decay rate (1/pi) min(|sigma~|_L1, gap) from a search of ``problem``."""
    return min(problem.l1_norm, result.gap) / math.pi
