"""Spectral gap of the damped wave (telegrapher) form of the two-velocity
system, and the optimal decay rate it yields for piecewise-constant
relaxation.

After rescaling the torus to unit length, sigma~(xi) = pi * sigma(2 pi xi),
v = exp(-gamma t) phi(xi) solves v_tt + 2 sigma~ v_t = v_xixi exactly when
phi'' + q phi = 0 with q = gamma (2 sigma~ - gamma). On the piece j, of
length L_j with sigma~ = sigma_j and q_j = t_j^2, (phi, phi') is carried
across by the transfer matrix

    T_j = [[cos t_j L_j, L_j sinc(t_j L_j)], [-q_j L_j sinc(t_j L_j), cos t_j L_j]],

of determinant 1. So a periodic phi exists, and gamma is an eigenvalue,
exactly where

    D(gamma) = 2 - tr(T_N ... T_1) = 0,

the pieces' lengths summing to 1. Every entry of T_j is even in t_j, so D
is entire in gamma, real on the real axis, and the branch of t_j never
matters. D(0) = 0 is the mass mode. The optimal rate is (1/pi)
min(|sigma~|_L1, gap): ``rescale_sigma``, then ``telegrapher_gap``, then
``optimal_rate``.

The default strip is 0 < Re gamma < max(2 min sigma~, |sigma~|_L1),
|Im gamma| <= 4 max sigma~. It reaches the L1 norm, where min(|sigma~|_L1,
gap) is set; 2 min sigma~ is kept where it is wider, so a constant
profile's high modes, on Re gamma = sigma~ = |sigma~|_L1, never sit on the
strip's edge.

The root search isolates every root in the strip by counting (Delves &
Lyness, Math. Comp. 1967; Kravanja & Van Barel, LNM 1727, 2000): the strip
is cut into axis-parallel boxes, the argument principle counts the zeros of
D in each, on samples of every box's edges laid in one pass, and Newton runs
in each box that holds one, until every box holds its count. The contour
that counts a box's zeros also gives their power sums, and Newton
starts from the zeros those sums determine, the eigenvalues of the
companion matrix of the polynomial they fix; a grid of seeds is laid only
where they give none. Two zeros are known in advance: gamma = 0, the mass
mode, and, where the damping is a constant sigma~ and re_max = 2 sigma~, that
simple zero (the k = 0 flux mode). The boxes' edges stay clear of both: the
strip's left edge lies at Re gamma = -_MARGIN, and in that constant case its
right edge at re_max + _MARGIN. Both zeros are booked as found simple roots
of their box and reported by neither the count nor the roots. The left margin
adds no root: for an eigenvalue, gamma^2 |phi|^2 - 2 gamma <sigma~ phi, phi>
+ |phi'|^2 = 0, so Re gamma = <sigma~ phi, phi> / |phi|^2 > 0 where
Im gamma != 0, and no real gamma < 0 solves it; only the mass mode has
Re gamma <= 0.

Two things are not proven. The strip height 4 max sigma~ is a heuristic:
nothing shows that no root above it has a smaller real part than the gap
found, and some profiles of small sigma, whose gap lies above it, fail
with "no eigenvalues found". And a contour step is accepted on its two
end samples alone: nothing bounds |D'| between them, so a pair of zeros
close to an edge could pass between two samples uncounted.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError, ValidationError

#: how far the piece lengths may sum from 1, as a profile's last end may lie from 2 pi
_LENGTH_TOL = 1e-12
_ROOT_TOL = 1e-9
_EPS = float(np.finfo(float).eps)
#: a sample of D is trusted only if |D| exceeds its rounding-error bound this many times
_TRUST = 100.0
#: argument-principle sampling: initial spacing along the contour, the largest
#: phase step left unbisected, and the limits that stop a contour through a
#: zero. A step's phase change is measured between its two samples and predicted
#: from its length times the larger |D'/D| at its ends; both are samples, and
#: nothing bounds |D'| between them, so the step is trusted, not proven
_SAMPLE_SPACING = 0.1
_MAX_PHASE_STEP = math.pi / 4.0
#: how far the strip's edges lie from its known zeros (_known_zeros): a simple zero at
#: least 4 / pi spacings from every edge passes both pi/4 step tests on the first samples
_MARGIN = 2.5 * _SAMPLE_SPACING
_MIN_SEGMENT = 1e-11
_MAX_SAMPLES = 2_000_000
#: D takes at most this many samples times pieces at once
_BLOCK = 2048
#: half-sides of the squares a root's multiplicity is counted on, tried in turn
_MULTIPLICITY_SQUARES = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2)
#: the strip is cut into rows as tall as it is wide, and at least this tall
_BOX_SIDE = 2.0 * math.pi
#: the rows' inner cuts are shifted by these fractions of a row's height, tried in turn
#: until every box counts
_ROW_SHIFTS = (0.0, 0.1)
#: a box is split at these fractions of its sides, the next pair tried where a child
#: fails to count; one missing more than _BUSY zeros is split before any Newton
_SPLITS = ((0.47, 0.46), (0.41, 0.43))
_BUSY = 4
#: Newton stops a seed once its step is below _NEWTON_TOL, once it leaves its box,
#: after _NEWTON_WANDER steps unless D is near zero there, and after _NEWTON_ITERS steps
_NEWTON_TOL = 1e-12
_NEWTON_WANDER = 20
_NEWTON_ITERS = 60
#: a zero is located once its Newton step and its rounding radius _TRUST err / |D'| are below this
_LOCATED = 1e-9


@dataclass(frozen=True)
class TelegrapherProblem:
    """Rescaled damping on the unit torus: ``pieces`` holds (length, sigma~) pairs in order,
    the lengths summing to 1."""

    pieces: tuple
    re_max: float | None = None
    im_max: float | None = None

    def __post_init__(self):
        lengths = [length for length, _ in self.pieces]
        total = math.fsum(lengths)
        if not lengths or min(lengths) <= 0 or abs(total - 1.0) > _LENGTH_TOL:
            raise ValidationError(
                f"piece lengths must be positive and sum to 1, got {len(lengths)} pieces summing to {total}"
            )
        values = [s for _, s in self.pieces]
        if min(values) <= 0:
            raise ValidationError(f"damping values must be positive, got {min(values)}")
        if self.re_max is None:
            object.__setattr__(self, "re_max", max(2.0 * min(values), self.l1_norm))
        if self.im_max is None:
            object.__setattr__(self, "im_max", 4.0 * max(values))
        if not (math.isfinite(self.re_max) and math.isfinite(self.im_max)):  # sigma past 1.4e307
            raise NumericalError(
                f"telegrapher gap: the search strip of damping ({min(values):g}, {max(values):g}) overflows: "
                f"re_max = {self.re_max:g}, im_max = {self.im_max:g}"
            )
        if self.re_max <= 0 or self.im_max <= 0:
            raise ValidationError("search strip must have positive extent")

    @property
    def l1_norm(self) -> float:
        """L1 norm of the rescaled damping over the unit torus."""
        return math.fsum(length * s for length, s in self.pieces)

    @functools.cached_property
    def _columns(self) -> np.ndarray:
        """The pieces as an (N, 2) array of (length, sigma~) rows."""
        return np.array(self.pieces, dtype=float).reshape(-1, 2)

    @property
    def sigma1(self) -> float:
        """The first piece's damping, as the benchmark's tracer records it."""
        return self.pieces[0][1]

    @property
    def sigma2(self) -> float:
        """The last piece's damping, as the benchmark's tracer records it."""
        return self.pieces[-1][1]


def rescale_sigma(profile) -> TelegrapherProblem:
    """sigma~ = pi * sigma(2 pi xi) of a RelaxationProfile, its pieces rescaled to lengths summing to 1.

    A break at which sigma keeps its value is no break. A profile of node
    samples is taken as the n pieces it holds.
    """
    kept = [(end, s) for (end, s), (_, t) in zip(profile.pieces, profile.pieces[1:]) if s != t]
    kept.append(profile.pieces[-1])
    starts = [0.0] + [end for end, _ in kept[:-1]]
    return TelegrapherProblem(
        tuple(((end - start) / (2.0 * math.pi), math.pi * s) for start, (end, s) in zip(starts, kept))
    )


def _sin_cos(z):
    """(sin z, cos z) of complex z, from the real sin and cos of Re z and the sinh and cosh of Im z:
    about three times faster than numpy's complex sin and cos on a large batch."""
    sin, cos = np.sin(z.real), np.cos(z.real)
    sinh, cosh = np.sinh(z.imag), np.cosh(z.imag)
    return sin * cosh + 1j * (cos * sinh), cos * cosh - 1j * (sin * sinh)


def _transfer(gam, size, lengths, sigmas) -> tuple:
    """The maps T = s I + A, A = [[a, b], [u, a]], of a block of pieces at a batch of gammas:
    s = +-1, c, (a, b, u), the derivatives of (c, b, u) in gamma, the sizes of (c, a, b, u)
    and bounds on the rounding errors of (a, b, u) in units of eps, each an array with a row
    per piece.

    ``lengths`` and ``sigmas`` are columns, and |gamma| = size. With q =
    gamma (2 sigma - gamma), t = sqrt(q) and x = t L, T has c = cos x on its
    diagonal, b = L sinc x = sin(t L)/t and u = -q b, all even in t. s is
    the sign nearer c, so that a = c - s, which is -2 sin^2(x/2) or
    2 cos^2(x/2), is small wherever T is near +-I. The partials in q are
    dc/dq = -L b/2, db/dq = -L^3 g/2 and du/dq = -b - q db/dq, with g =
    (sin x - x cos x)/x^3, all finite at q = 0; below |x| = 1e-2, where the
    quotients cancel or divide by zero, sinc and g come from their series.
    An entry's error bound is its size plus r times its partial, eps r
    bounding the rounding of q (|gamma| (2 sigma + |gamma|)) and of
    t = sqrt(q) carried back to q (2 |q|).
    """
    w = 2.0 * sigmas - gam
    q = gam * w
    x = np.sqrt(q) * lengths
    sin_h, cos_h = _sin_cos(0.5 * x)
    sin2, cos2 = sin_h * sin_h, cos_h * cos_h
    c = cos2 - sin2
    near = c.real >= 0.0
    s = np.where(near, 1.0, -1.0)
    a = np.where(near, -2.0 * sin2, 2.0 * cos2)
    sin = 2.0 * sin_h * cos_h
    sinc = sin / x
    g = (sin - x * c) / (x * x * x)
    abs_q = np.abs(q)
    small = abs_q < 1e-4 / lengths**2  # |x| < 1e-2
    if small.any():
        x2 = x[small] ** 2
        sinc[small] = 1.0 - x2 / 6.0 + x2 * x2 / 120.0
        g[small] = 1.0 / 3.0 - x2 / 30.0 + x2 * x2 / 840.0
    b = lengths * sinc
    g_q = (0.5 * lengths**3) * g  # -db/dq
    nu_q = b - q * g_q  # -du/dq
    ndq = gam - w  # -dq/dgamma
    r = size * (2.0 * sigmas + size) + 2.0 * abs_q
    aa, ab = np.abs(a), np.abs(b)
    au = abs_q * ab
    return (
        s, c, a, b, -q * b,
        (0.5 * lengths) * b * ndq, g_q * ndq, nu_q * ndq,
        np.abs(c), aa, ab, au,
        aa + (0.5 * lengths) * r * ab, ab + r * np.abs(g_q), au + r * np.abs(nu_q),
    )


def _d_block(gam, problem: TelegrapherProblem):
    """(D, dD/dgamma, a first-order bound on the rounding error of D) at a 1-d block of gammas.

    D = 2 - tr(T_N ... T_1). The product M = T_k ... T_1 = S I + P, S = +-1
    the product of the pieces' signs (_transfer), is carried piece by piece
    as S and P <- s P + S A + A P, which is small, and D small, wherever
    every T is near +-I, as on two near-equal halves. Along with it go |P|,
    dM, by the product rule, and an entrywise bound eps E on the rounding
    error of P, E <- |T| E + e_A (I + |P|) + |P|, eps e_A the bounds of A's
    entries. The last piece enters only through the trace:
    D = 2 (1 - s S) - (c tr P + 2 S a + b P_10 + u P_01). As many pieces'
    maps are evaluated at once as keep their samples times pieces within
    _BLOCK.
    """
    size = np.abs(gam)
    pieces = problem._columns
    last = len(pieces) - 1
    step = max(1, _BLOCK // max(gam.size, 1))
    zero = (0.0,) * 4
    sign, p, ap, dm, e = 1.0, zero, zero, zero, zero  # M = I before the first piece
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for start in range(0, last + 1, step):
            block = pieces[start : start + step]
            terms = _transfer(gam, size, block[:, :1], block[:, 1:])
            for k in range(start, start + len(block)):
                s, c, a, b, u, dc, db, du, ac, aa, ab, au, ea, eb, eu = (term[k - start] for term in terms)
                p00, p01, p10, p11 = p
                a00, a01, a10, a11 = ap
                d00, d01, d10, d11 = dm
                e00, e01, e10, e11 = e
                if k == last:
                    break
                if k == 0:
                    sign, p, ap, dm, e = s, (a, b, u, a), (aa, ab, au, aa), (dc, db, du, dc), (ea, eb, eu, ea)
                    continue
                m00, m11 = sign + p00, sign + p11
                p = (
                    s * p00 + sign * a + (a * p00 + b * p10),
                    s * p01 + sign * b + (a * p01 + b * p11),
                    s * p10 + sign * u + (u * p00 + a * p10),
                    s * p11 + sign * a + (u * p01 + a * p11),
                )
                ap = tuple(np.abs(entry) for entry in p)
                sign = sign * s
                dm = (
                    dc * m00 + db * p10 + c * d00 + b * d10,
                    dc * p01 + db * m11 + c * d01 + b * d11,
                    du * m00 + dc * p10 + u * d00 + c * d10,
                    du * p01 + dc * m11 + u * d01 + c * d11,
                )
                e = (
                    ac * e00 + ab * e10 + ea * (1.0 + a00) + eb * a10 + a00,
                    ac * e01 + ab * e11 + ea * a01 + eb * (1.0 + a11) + a01,
                    au * e00 + ac * e10 + eu * (1.0 + a00) + ea * a10 + a10,
                    au * e01 + ac * e11 + eu * a01 + ea * (1.0 + a11) + a11,
                )
        trace = p00 + p11
        d = 2.0 * (1.0 - s * sign) - (c * trace + 2.0 * sign * a + b * p10 + u * p01)
        dd = -(dc * (2.0 * sign + trace) + db * p10 + du * p01 + c * (d00 + d11) + b * d10 + u * d01)
        spread = a00 + a11
        err = _EPS * (
            ac * (e00 + e11 + spread) + ab * e10 + au * e01 + ea * (2.0 + spread) + eb * a10 + eu * a01
        )
    return d, dd, err


def _d_batch(gammas, problem: TelegrapherProblem):
    """(D, dD/dgamma, a first-order bound on the rounding error of D) at a batch of gammas,
    _BLOCK of them at a time (_d_block), which bounds the memory a large batch takes."""
    gam = np.atleast_1d(np.asarray(gammas, dtype=complex)).ravel()
    blocks = [_d_block(gam[i : i + _BLOCK], problem) for i in range(0, max(gam.size, 1), _BLOCK)]
    d, dd, err = (np.concatenate(parts) for parts in zip(*blocks)) if len(blocks) != 1 else blocks[0]
    shape = np.shape(gammas)
    return d.reshape(shape), dd.reshape(shape), err.reshape(shape)


def characteristic(gamma: complex, problem: TelegrapherProblem) -> complex:
    """D(gamma) = 2 - tr(T_N ... T_1), zero exactly at the eigenvalues, the mass mode 0 among them."""
    return complex(_d_batch(gamma, problem)[0])


@dataclass(frozen=True)
class GapResult:
    """Smallest real part over the eigenvalues found in the search strip.

    ``count`` is the number of eigenvalues in the strip, multiplicity
    included: the sum of the argument-principle counts of the boxes the
    strip is cut into, less the known zeros booked in them. ``roots``
    holds every one of them once, and ``eigenvalue`` is the minimiser, of
    a conjugate pair the one with Im >= 0.
    """

    gap: float
    eigenvalue: complex
    roots: tuple
    count: int

    @property
    def minimiser_is_real(self) -> bool:
        return abs(self.eigenvalue.imag) < 1e-9


def _centre(x0: float, x1: float, y0: float, y1: float) -> complex:
    """The centre of the box x0 < Re < x1, y0 < Im < y1, the mean of its corners."""
    return complex(x0 + x1 + x1 + x0, y0 + y0 + y1 + y1) / 4.0


def _contours(boxes: list) -> tuple:
    """(z, owner): the samples of the counter-clockwise contours of the (x0, x1, y0, y1) boxes,
    laid end to end, each closed by its first corner, and the box each sample is of.

    Each edge [a, b) of length L takes max(4, ceil(L / _SAMPLE_SPACING))
    evenly spaced samples, every edge's in one pass.
    """
    corners = np.array(boxes, dtype=float).reshape(-1, 4)
    x, y = corners[:, [0, 1, 1, 0]], corners[:, [2, 2, 3, 3]]  # each edge's start; the next edge's is its end
    dx, dy = ((np.roll(v, -1, axis=1) - v).ravel() for v in (x, y))
    length = np.hypot(dx, dy)
    a, unit = np.empty((2, length.size), dtype=complex)
    a.real, a.imag = x.ravel(), y.ravel()
    unit.real, unit.imag = dx / length, dy / length  # part by part, as complex / float divides
    n = np.maximum(4, np.ceil(length / _SAMPLE_SPACING).astype(int))
    first = np.cumsum(n) - n
    arc = np.repeat(length, n) * (np.arange(n.sum()) - np.repeat(first, n)) / np.repeat(n, n)
    sizes = n.reshape(-1, 4).sum(axis=1)
    z = np.insert(np.repeat(a, n) + np.repeat(unit, n) * arc, np.cumsum(sizes), a[::4])
    return z, np.repeat(np.arange(sizes.size), sizes + 1)


def _zeros_inside(boxes: list, problem: TelegrapherProblem, moments: int = 0) -> tuple:
    """(the zeros of D inside each (x0, x1, y0, y1) box, their power sums), by the argument
    principle; the count is -1 where it fails.

    arg D is sampled along each box's counter-clockwise contour, on samples
    laid for every box in one pass (_contours), and every step is bisected
    until its phase change, and its length times the larger |D'/D| at its
    two ends, are both at most pi/4; a box's count is the sum of its steps over 2 pi. The second test
    sees a pair of zeros close to an edge, whose 2 pi turn can fall between
    two samples. The boxes are sampled and refined in one batch. A box
    fails where |D| at a sample does not stand clear of its rounding error,
    or where a step cannot be bisected further. Each sample costs D a pass
    over the pieces, so a batch whose samples times pieces would pass
    2 _MAX_SAMPLES raises before D is evaluated on it: checked on the
    edges' lengths over _SAMPLE_SPACING before any sample is laid, on the
    samples laid, and on each round of bisection's midpoints.

    The power sums s_p of the zeros about the box's centre c (_centre),
    p = 1 .. ``moments``, come from the same samples (Delves & Lyness): the
    steps' increments of log D, log|d_{k+1}/d_k| + i (the phase step), each
    weighted by ((z_k + z_{k+1})/2 - c)^p, summed and divided by 2 pi i.
    They are returned as a (boxes, moments) array.
    """
    if not boxes:
        return np.zeros(0, dtype=int), np.zeros((0, moments), dtype=complex)
    limit = 2 * _MAX_SAMPLES // len(problem.pieces)
    too_many = (
        f"telegrapher gap: argument-principle count failed: over {limit} samples in one batch of contours, "
        f"the bound at {len(problem.pieces)} pieces"
    )
    sides = np.diff(np.reshape(boxes, (-1, 2, 2)))  # each box's width and height
    if 2 * np.ceil(sides / _SAMPLE_SPACING).sum() > limit:
        raise NumericalError(too_many)
    z, owner = _contours(boxes)
    if z.size > limit:
        raise NumericalError(too_many)
    d, dd, err = _d_batch(z, problem)
    failed = np.zeros(len(boxes), dtype=bool)
    while True:
        failed[owner[~(np.abs(d) > _TRUST * err)]] = True
        width = np.abs(np.diff(z))
        with np.errstate(invalid="ignore", divide="ignore"):
            step = np.angle(d[1:] / d[:-1])
            slope = np.abs(dd / d)
            turn = width * np.maximum(slope[1:], slope[:-1])
        within = owner[1:] == owner[:-1]
        coarse = within & ((np.abs(step) > _MAX_PHASE_STEP) | (turn > _MAX_PHASE_STEP))
        failed[owner[1:][coarse & (width < _MIN_SEGMENT)]] = True
        coarse = np.flatnonzero(coarse & ~failed[owner[1:]])
        if coarse.size == 0:
            break
        if z.size + coarse.size > limit:
            raise NumericalError(too_many)
        mid = 0.5 * (z[coarse] + z[coarse + 1])
        dm, ddm, errm = _d_batch(mid, problem)
        z = np.insert(z, coarse + 1, mid)
        d = np.insert(d, coarse + 1, dm)
        dd = np.insert(dd, coarse + 1, ddm)
        err = np.insert(err, coarse + 1, errm)
        owner = np.insert(owner, coarse + 1, owner[coarse])
    winding = np.bincount(owner[1:][within], weights=step[within], minlength=len(boxes))
    winding[failed] = 0.0
    counts = np.where(failed, -1, np.rint(winding / (2.0 * math.pi)).astype(int))
    sums = np.zeros((len(boxes), moments), dtype=complex)
    if moments:
        with np.errstate(invalid="ignore", divide="ignore"):
            log_step = (np.diff(np.log(np.abs(d))) + 1j * step)[within] / (2j * math.pi)
        centre = np.array([_centre(*box) for box in boxes])
        mine = owner[1:][within]
        offset = (0.5 * (z[1:] + z[:-1]))[within] - centre[mine]
        term = log_step
        for p in range(moments):
            term = term * offset
            sums[:, p] = np.bincount(mine, term.real, len(boxes))
            sums[:, p] += 1j * np.bincount(mine, term.imag, len(boxes))
    return counts, sums


def _known_zeros(problem: TelegrapherProblem) -> tuple:
    """The zeros of D known in advance: gamma = 0, the mass mode, and, where the damping is a
    constant sigma~ and re_max = 2 sigma~, that simple zero (the k = 0 flux mode, v = const)."""
    values = {s for _, s in problem.pieces}
    if len(values) == 1 and problem.re_max == 2.0 * values.pop():
        return (0j, complex(problem.re_max))
    return (0j,)


def _strip_boxes(problem: TelegrapherProblem) -> list:
    """The boxes the strip is cut into that hold zeros of D, each with its count and power sums,
    and the known zeros (_known_zeros) in it booked as found simple roots.

    The strip runs from Re gamma = -_MARGIN, clear of the mass mode, to
    re_max, or to re_max + _MARGIN where re_max is a known zero. It is cut
    into rows, odd in number so that no cut lies on the real axis. A cut
    through a zero fails its two boxes: then the inner cuts move by the
    next fraction of a row's height in _ROW_SHIFTS, and past the last the
    search raises.
    """
    known = _known_zeros(problem)
    x1 = problem.re_max + (_MARGIN if complex(problem.re_max) in known else 0.0)
    y = problem.im_max
    rows = 2 * max(0, round(y / max(problem.re_max, _BOX_SIDE) - 0.5)) + 1
    height = 2.0 * y / rows
    for shift in _ROW_SHIFTS:
        ys = [-y] + [-y + (j + shift) * height for j in range(1, rows)] + [y]
        boxes = [(-_MARGIN, x1, ys[j], ys[j + 1]) for j in range(rows)]
        counts, sums = _zeros_inside(boxes, problem, _BUSY)
        if (counts >= 0).all() or rows == 1:
            break
    if (counts < 0).any():
        raise NumericalError(
            f"telegrapher gap: argument-principle count failed on {np.sum(counts < 0)} of {len(boxes)} boxes"
        )
    return [
        _Box(*box, int(n), moments, [(z, 1, _MULTIPLICITY_SQUARES[0]) for z in known if box[2] < z.imag < box[3]])
        for box, n, moments in zip(boxes, counts, sums)
        if n > 0
    ]


@dataclass(eq=False)
class _Box:
    """A box x0 < Re < x1, y0 < Im < y1 of the root search, holding ``count`` zeros of D.

    ``sums`` are their power sums about the box's centre, p = 1 .. _BUSY
    (_zeros_inside), empty where they were not taken. ``roots`` are the
    (root, multiplicity, half-side of its counting square) found in it,
    ``squares`` the (centre, half-side) squares counted in it, and
    ``split`` whether it is to be cut in four.
    """

    x0: float
    x1: float
    y0: float
    y1: float
    count: int
    sums: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=complex))
    roots: list = field(default_factory=list)
    squares: list = field(default_factory=list)
    split: bool = False

    def missing(self) -> int:
        return self.count - sum(m for _, m, _ in self.roots)

    def size(self) -> float:
        return max(self.x1 - self.x0, self.y1 - self.y0)


def _inside(owner: list, z: np.ndarray) -> np.ndarray:
    """Whether each z lies inside its own box."""
    x0, x1, y0, y1 = np.array([[box.x0, box.x1, box.y0, box.y1] for box in owner]).reshape(-1, 4).T
    return (x0 < z.real) & (z.real < x1) & (y0 < z.imag) & (z.imag < y1)


def _spent(z: complex, squares: list) -> bool:
    """Whether z lies in one of the (centre, half-side) squares."""
    return any(abs(z.real - c.real) < h and abs(z.imag - c.imag) < h for c, h in squares)


def _newton(z: np.ndarray, owner: list, problem: TelegrapherProblem) -> np.ndarray:
    """Newton on D from each seed z, deflated by the roots found in its box, owner[i].

    Deflation divides D by prod (gamma - r)^m, so no seed returns to a root
    already found. A seed stops once its step is below _NEWTON_TOL or it
    leaves its box. After _NEWTON_WANDER steps only the seeds where D is
    near zero, slowed by a multiple root or a close pair, go on. D is real
    on the real axis, so a limit within _NEWTON_TOL of it is put on it.
    """
    z = z.astype(complex)
    index = {box: i for i, box in enumerate(dict.fromkeys(owner))}
    which = np.array([index[box] for box in owner], dtype=int)
    poles = [(which == i, r, m) for box, i in index.items() for r, m, _ in box.roots]
    active = np.arange(z.size)
    for k in range(_NEWTON_ITERS):
        if not active.size:
            break
        za = z[active]
        d, dd, err = _d_batch(za, problem)
        if k >= _NEWTON_WANDER:
            near = (np.abs(d) < _ROOT_TOL) | (np.abs(d) <= _TRUST * err)
            active = active[near]
            za = za[near]
            d = d[near]
            dd = dd[near]
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            rate = dd / d
            for mine, r, m in poles:
                rate -= np.where(mine[active], m / (za - r), 0.0)
            step = 1.0 / rate
        moving = np.isfinite(step)
        z[active] = np.where(moving, za - step, za)
        inside = _inside([owner[i] for i in active], z[active])
        active = active[moving & (np.abs(step) >= _NEWTON_TOL) & inside]
    z.imag[np.abs(z.imag) < _NEWTON_TOL] = 0.0
    return z


def _moment_seeds(box: _Box) -> np.ndarray:
    """Estimates of the m zeros a box misses, from its power sums: the roots of the degree-m
    polynomial whose power sums are the box's, less each found root's multiplicity times
    (root - centre)^p, by Newton's identities, taken as the eigenvalues of its companion matrix
    (np.roots). Empty where m <= 0, and NaN where m passes the sums the box carries (it misses
    more than _BUSY zeros, or was not counted with them) or a coefficient is not finite.
    """
    m = box.missing()
    if m <= 0:
        return np.zeros(0, dtype=complex)
    if m > box.sums.size:
        return np.full(m, np.nan, dtype=complex)
    c = _centre(box.x0, box.x1, box.y0, box.y1)  # the centre _zeros_inside takes the sums about
    power = [s - sum(k * (r - c) ** p for r, k, _ in box.roots) for p, s in enumerate(box.sums[:m].tolist(), 1)]
    elementary = [1.0]  # e_k of the missing zeros, by k e_k = sum_i (-1)^(i-1) e_(k-i) power_i
    for k in range(1, m + 1):
        elementary.append(sum((-1) ** (i - 1) * elementary[k - i] * power[i - 1] for i in range(1, k + 1)) / k)
    coefficients = np.array([(-1) ** k * e for k, e in enumerate(elementary)], dtype=complex)
    if not np.isfinite(coefficients).all():  # np.roots raises on NaN or inf
        return np.full(m, np.nan, dtype=complex)
    return c + np.roots(coefficients)


def _seek(boxes: list, problem: TelegrapherProblem, seeds: tuple) -> None:
    """Newton from each box's moment seeds, one per zero it misses (_moment_seeds), or from a
    ``seeds`` grid where they are not all finite (the box misses more than its sums give, or
    the coefficients they give are not finite); then meet each box's count, or mark it to split.

    A candidate is a Newton limit in its box, outside the squares counted
    there, where |D| < 1e-9 or is within its rounding error. The best
    (smallest |D| against that error) stands for every candidate within
    1e-6 of it. If a box has as many candidates as it misses zeros, all
    located, they are that many distinct zeros, so simple. Elsewhere the
    candidates' multiplicities are counted on the _MULTIPLICITY_SQUARES,
    all in one batch, and the smallest square that counts is taken, best
    candidate first, until the box's count is met. A box that gains no root
    is marked to split.
    """
    u = (np.arange(seeds[0]) + 0.5) / seeds[0]
    v = (np.arange(seeds[1]) + 0.5) / seeds[1]
    starts = []
    owner = []
    for box in boxes:
        start = _moment_seeds(box)
        if not np.isfinite(start).all():
            re = box.x0 + (box.x1 - box.x0) * u
            im = box.y0 + (box.y1 - box.y0) * v
            start = (re[:, None] + 1j * im[None, :]).ravel()
        starts.append(start)
        owner += [box] * start.size
    z = _newton(np.concatenate(starts), owner, problem)
    keep = np.flatnonzero(np.isfinite(z) & _inside(owner, z))
    z = z[keep]
    owner = [owner[i] for i in keep]
    d, dd, err = _d_batch(z, problem)
    with np.errstate(invalid="ignore", divide="ignore"):
        located = np.maximum(np.abs(d), _TRUST * err) <= _LOCATED * np.abs(dd)
        zero = (np.abs(d) < _ROOT_TOL) | (np.abs(d) <= _TRUST * err)
        order = np.argsort(np.abs(d) / err)
    picked = {box: [] for box in boxes}
    for i in order[zero[order]]:
        mine = picked[owner[i]]
        taken = owner[i].squares + [(z[j], _MULTIPLICITY_SQUARES[0]) for j in mine]
        if not _spent(z[i], taken):
            mine.append(i)
    ladder = []
    for box, mine in picked.items():
        if len(mine) == box.missing() and located[mine].all():
            box.roots += [(complex(z[i]), 1, _MULTIPLICITY_SQUARES[0]) for i in mine]
        else:
            box.split = True
            ladder += [(box, complex(z[i])) for i in mine]
    rungs = [(r.real - h, r.real + h, r.imag - h, r.imag + h) for _, r in ladder for h in _MULTIPLICITY_SQUARES]
    counts = _zeros_inside(rungs, problem)[0].reshape(len(ladder), len(_MULTIPLICITY_SQUARES))
    for (box, r), row in zip(ladder, counts):
        if box.missing() <= 0 or _spent(r, box.squares):
            continue
        counted = np.flatnonzero(row >= 0)
        if counted.size == 0:
            raise NumericalError(
                f"telegrapher gap: root search: cannot count the multiplicity of the root near gamma = {r:.6g}"
            )
        half = _MULTIPLICITY_SQUARES[counted[0]]
        box.squares.append((r, half))
        if row[counted[0]] > 0:  # a root gained: Newton runs again, deflated by it
            box.roots.append((r, int(row[counted[0]]), half))
            box.split = False


def _split(boxes: list, problem: TelegrapherProblem) -> list:
    """The boxes cut in up to four, each child with its count, power sums and the parent's roots inside it.

    Each side at least half as long as the other is cut at its fraction in
    the first pair of _SPLITS. A box with a child that fails to count, its
    edge through a zero, is cut at the next pair instead; past the last the
    search raises. Children that hold no zero are dropped.
    """
    children = []
    for fx, fy in _SPLITS:
        cuts = []
        for box in boxes:
            w = box.x1 - box.x0
            h = box.y1 - box.y0
            xs = (box.x0, box.x0 + fx * w, box.x1) if 2.0 * w >= h else (box.x0, box.x1)
            ys = (box.y0, box.y0 + fy * h, box.y1) if 2.0 * h >= w else (box.y0, box.y1)
            cuts += [(box, (a, b, c, d)) for a, b in zip(xs, xs[1:]) for c, d in zip(ys, ys[1:])]
        counts, sums = _zeros_inside([cut for _, cut in cuts], problem, _BUSY)
        failed = {box for (box, _), n in zip(cuts, counts) if n < 0}
        for (box, (x0, x1, y0, y1)), n, moments in zip(cuts, counts, sums):
            if box in failed or n == 0:
                continue
            roots = [r for r in box.roots if x0 < r[0].real < x1 and y0 < r[0].imag < y1]
            children.append(_Box(x0, x1, y0, y1, int(n), moments, roots, list(box.squares)))
        boxes = [box for box in boxes if box in failed]
        if not boxes:
            return children
    raise NumericalError(
        f"telegrapher gap: root search: a box split at {complex(boxes[0].x0, boxes[0].y0):.6g} fails to count"
    )


def _locate(boxes: list, problem: TelegrapherProblem, seeds: tuple) -> list:
    """Every (root, multiplicity, half-side) in the boxes, by rounds of Newton (_seek) and splitting.

    A box where Newton gains no root is split (_split), as is one that
    misses more than _BUSY zeros while larger than _BOX_SIDE / 16. A box
    that gains a root is searched again. A box leaves once its count is met
    or passed, or, still short, once it is too small to split.
    """
    done = []
    work = list(boxes)
    while work:
        for box in work:
            if box.missing() > _BUSY and box.size() > _BOX_SIDE / 16:
                box.split = True
        searched = [box for box in work if not box.split]
        if searched:
            _seek(searched, problem, seeds)
        kept = []
        parents = []
        for box in work:
            if box.missing() <= 0 or box.split and box.size() < _MULTIPLICITY_SQUARES[0]:
                done.append(box)
            elif box.split:
                parents.append(box)
            else:
                kept.append(box)
        work = kept + _split(parents, problem)
    return [r for box in done for r in box.roots]


def telegrapher_gap(
    problem: TelegrapherProblem,
    seeds: tuple[int, int] = (3, 3),
) -> GapResult:
    """Find every eigenvalue in the strip 0 < Re < re_max, |Im| <= im_max.

    1. Count them, multiplicity included, by the argument principle on D,
       box by box over the strip, along with their power sums (_strip_boxes).
    2. Locate them by Newton on D, from the zeros each box's power sums
       give, one per zero it misses (_moment_seeds); split the boxes where
       Newton falls short, and count the multiplicity of the roots where a
       box's distinct roots are fewer than its count (_locate). ``seeds``
       is the grid of Newton seeds laid instead in a box whose sums give no
       finite seeds, or which misses more than _BUSY zeros.
    3. Anything but exactly the counted number, multiplicity included,
       raises NumericalError, as does an empty strip.

    The boxes reach past the strip, to Re gamma = -_MARGIN and, where a
    constant profile has the zero 2 sigma~ at re_max, to re_max + _MARGIN,
    so that their edges stay clear of gamma = 0 and of that zero. Both are
    booked as found, and left out of the count and the roots alike.
    """
    if min(seeds) < 1:
        raise ValidationError(f"seeds must be positive, got {seeds}")
    boxes = _strip_boxes(problem)
    booked = [r for box in boxes for r in box.roots]
    count = sum(box.count for box in boxes) - len(booked)
    if count <= 0:
        raise NumericalError(
            f"telegrapher gap: no eigenvalues found in the search strip 0 < Re gamma < {problem.re_max:.6g}, "
            f"|Im gamma| <= {problem.im_max:.6g}; no root above im_max (by default 4 max sigma~, "
            "a heuristic) is searched"
        )
    roots = [r for r in _locate(boxes, problem, seeds) if r not in booked]
    found = sum(m for _, m, _ in roots)
    if found != count:
        raise NumericalError(f"telegrapher gap: root search: found {found} of {count} counted roots")
    located = sorted((r for r, _, _ in roots), key=lambda c: (c.real, c.imag))
    best = located[0]  # the smallest real part; of a conjugate pair, Im >= 0
    return GapResult(best.real, complex(best.real, abs(best.imag)), tuple(located), count)


def optimal_rate(problem: TelegrapherProblem, result: GapResult) -> float:
    """The optimal decay rate (1/pi) min(|sigma~|_L1, gap) from a search of ``problem``."""
    return min(problem.l1_norm, result.gap) / math.pi
