"""Damped-wave spectral gap via the transfer-matrix function D = 2 - tr(T_N ... T_1)."""

import math
from dataclasses import replace

import numpy as np
import pytest

import gtlab.telegrapher as tele
from gtlab.errors import NumericalError, ValidationError
from gtlab.profiles import RelaxationProfile
from gtlab.rates import rate_2v
from gtlab.solver import MacroState2V, fit_decay_rate, simulate_2v
from gtlab.telegrapher import (
    GapResult,
    TelegrapherProblem,
    characteristic,
    optimal_rate,
    rescale_sigma,
    telegrapher_gap,
)
from gtlab.torus import random_band_limited


def halves(sigma1: float, sigma2: float, **strip) -> TelegrapherProblem:
    """Rescaled damping sigma1 on (0, 1/2] and sigma2 on (1/2, 1]."""
    return TelegrapherProblem(((0.5, sigma1), (0.5, sigma2)), **strip)


def two_piece_d(gamma: complex, problem: TelegrapherProblem) -> complex:
    """D of two pieces in closed form: 2 (1 - C1 C2) + (q1 + q2) S1 S2, with C_j = cos z_j,
    S_j = sin(z_j)/t_j and z_j = t_j L_j, where 1 - C1 C2 = sin^2((z1 + z2)/2) + sin^2((z1 - z2)/2)
    does not cancel. Away from t_j = 0."""
    (l1, s1), (l2, s2) = problem.pieces
    q1, q2 = gamma * (2.0 * s1 - gamma), gamma * (2.0 * s2 - gamma)
    t1, t2 = np.sqrt(q1 + 0j), np.sqrt(q2 + 0j)
    z1, z2 = t1 * l1, t2 * l2
    return 2.0 * (np.sin((z1 + z2) / 2.0) ** 2 + np.sin((z1 - z2) / 2.0) ** 2) + (q1 + q2) * (
        np.sin(z1) / t1
    ) * (np.sin(z2) / t2)


PROFILE_14 = RelaxationProfile.two_piece(1.0, 4.0)
P_14 = halves(math.pi, 4.0 * math.pi)


def long_double_d(gamma, problem: TelegrapherProblem) -> np.ndarray:
    """2 - tr(T_N ... T_1) as a plain product of the maps, in long double. Away from t_j = 0."""
    g = np.asarray(gamma, dtype=np.clongdouble)
    m00, m01, m10, m11 = np.ones_like(g), np.zeros_like(g), np.zeros_like(g), np.ones_like(g)
    for length, sigma in problem.pieces:
        q = g * (2 * np.longdouble(sigma) - g)
        t = np.sqrt(q)
        c, b = np.cos(t * np.longdouble(length)), np.sin(t * np.longdouble(length)) / t
        m00, m01, m10, m11 = c * m00 + b * m10, c * m01 + b * m11, c * m10 - q * b * m00, c * m11 - q * b * m01
    return 2 - (m00 + m11)


def _tau(gamma, sigma_j):
    return np.sqrt(gamma * (2.0 * sigma_j - gamma) + 0j)


def _taus(gamma, problem: TelegrapherProblem):
    """t_j = sqrt(gamma (2 sigma_j - gamma)) of each piece."""
    return [_tau(gamma, sigma) for _, sigma in problem.pieces]


def matching_matrix(gamma: complex, problem: TelegrapherProblem) -> np.ndarray:
    """The printed 4x4 C^1-matching matrix of two halves; det M = -(t2/t1) D."""
    t1, t2 = _taus(gamma, problem)
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


def _det_m(gamma: complex, problem: TelegrapherProblem) -> complex:
    """det M through D, away from t1 = 0."""
    t1, t2 = _taus(gamma, problem)
    return -(t2 / t1) * characteristic(gamma, problem)


class TestRescale:
    def test_one_four(self):
        p = rescale_sigma(PROFILE_14)
        assert p == P_14
        assert p.l1_norm == pytest.approx(5.0 * math.pi / 2.0)

    def test_constant(self):
        assert rescale_sigma(RelaxationProfile.constant(1.0)).pieces == ((1.0, math.pi),)

    def test_two_equal_pieces(self):
        # a break at which sigma keeps its value is no break
        assert rescale_sigma(RelaxationProfile.two_piece(2.0, 2.0)).pieces == ((1.0, 2.0 * math.pi),)

    def test_strip_defaults(self):
        # re_max = max(2 min sigma~, |sigma~|_L1): the L1 norm past max/min = 3, else 2 min sigma~
        assert P_14.re_max == P_14.l1_norm == pytest.approx(2.5 * math.pi)
        assert P_14.im_max == 16.0 * math.pi
        assert halves(math.pi, 2.9 * math.pi).re_max == 2.0 * math.pi
        assert halves(math.pi, math.pi).re_max == 2.0 * math.pi

    def test_unsupported_profile(self):
        # every RelaxationProfile is taken as its pieces; only pieces that do not tile the
        # unit torus with positive damping are refused
        three = RelaxationProfile.piecewise([(1.0, 1.0), (2.0, 2.0), (2 * math.pi, 3.0)])
        lengths = [1.0 / (2.0 * math.pi), 1.0 / (2.0 * math.pi), 1.0 - 1.0 / math.pi]
        want = list(zip(lengths, [math.pi, 2.0 * math.pi, 3.0 * math.pi]))
        assert np.allclose(rescale_sigma(three).pieces, want, rtol=1e-15, atol=0.0)
        refused = [(), ((0.5, 1.0),), ((0.5, 1.0), (0.6, 1.0)), ((1.0, 1.0), (0.0, 1.0)), ((0.5, 1.0), (0.5, 0.0))]
        for pieces in refused:
            with pytest.raises(ValidationError):
                TelegrapherProblem(pieces)


class TestDeterminant:
    def test_near_root_at_reported_gap(self):
        assert abs(characteristic(2.72831, P_14)) < 1e-3

    def test_conjugate_symmetry(self):
        for g in (1.2 + 3.4j, 0.5 - 2.0j, 4.0 + 0.1j):
            assert characteristic(np.conj(g), P_14) == pytest.approx(
                np.conj(characteristic(g, P_14))
            )

    def test_matrix_agrees_with_closed_form(self):
        # moderate |Im gamma| keeps the entries O(1), so 1e-12 is meaningful
        rng = np.random.default_rng(3)
        for _ in range(50):
            g = complex(rng.uniform(0.1, 6.0), rng.uniform(-3.0, 3.0))
            det_matrix = np.linalg.det(matching_matrix(g, P_14))
            det_formula = _det_m(g, P_14)
            scale = max(1.0, abs(det_formula))
            assert abs(det_matrix - det_formula) / scale < 1e-12

    def test_branch_flip_leaves_zero_set(self):
        # the trace of T2 T1 written out in t1, t2: negating either leaves it unchanged
        def d_of(t1, t2, q1, q2):
            s1, s2 = np.sin(t1 / 2) / t1, np.sin(t2 / 2) / t2
            return 2 * (1 - np.cos(t1 / 2) * np.cos(t2 / 2)) + (q1 + q2) * s1 * s2

        for g in (1.0 + 1.0j, 2.5 - 4.0j, 5.0 + 0.5j):
            t1, t2 = _taus(g, P_14)
            q1, q2 = t1**2, t2**2
            want = characteristic(g, P_14)
            for signs in ((1, 1), (-1, 1), (1, -1), (-1, -1)):
                got = d_of(signs[0] * t1, signs[1] * t2, q1, q2)
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    def test_constant_pieces_match_modal_eigenvalues(self):
        # sigma1 = sigma2 = pi: roots at gamma = pi +- sqrt(pi^2 - 4 pi^2 k^2),
        # the constant-coefficient modal eigenvalues after the torus rescaling
        p = halves(math.pi, math.pi)
        for k in (1, 2):
            gamma = math.pi + 1j * math.sqrt(4.0 * math.pi**2 * k**2 - math.pi**2)
            assert abs(characteristic(gamma, p)) < 1e-9

    def test_entire_form_matches_determinant(self):
        # -(t2/t1) D against the printed closed form of det M, also far off the
        # real axis where the 4x4 matrix has entries of size e^|Im t|
        for g in (1.2 + 3.4j, 0.5 - 2.0j, 4.0 + 0.1j, 7.5 + 9.0j, 20.0 - 30.0j):
            t1, t2 = _taus(g, P_14)
            r = t2 / t1
            want = -np.sin(t1 / 2) * np.sin(t2 / 2) * (1 + r**2) + 2 * r * (
                np.cos(t1 / 2) * np.cos(t2 / 2) - 1
            )
            assert abs(_det_m(g, P_14) - want) <= 1e-12 * abs(want)

    def test_entire_form_is_even_across_the_branch_cut(self):
        # just above and below the cut gamma > 2 sigma_2, t2 jumps sign; D must not
        g = 30.0
        above = characteristic(g + 1e-9j, P_14)
        below = characteristic(g - 1e-9j, P_14)
        assert above == pytest.approx(np.conj(below), rel=1e-6)
        assert above == pytest.approx(below, rel=1e-6)

    def test_analytic_derivative_matches_central_difference(self):
        # random points, points at and within 1e-9 of 2 sigma_j, where t_j = 0,
        # and points either side of 2 sigma_j +- 2e-4 / sigma_j, where |t_j/2|
        # crosses 1e-2 and S_j and g switch to their series
        rng = np.random.default_rng(7)
        points = [complex(rng.uniform(0.1, 6.0), rng.uniform(-12.0, 12.0)) for _ in range(20)]
        for _, s in P_14.pieces:
            edge = 2e-4 / s
            for off in (0.0, 1e-9, -1e-9 + 1e-9j, 0.99 * edge, 1.01 * edge, -0.99 * edge, 1.01j * edge):
                points.append(2.0 * s + off)
        for g in points:
            h = 1e-6 * (1.0 + abs(g))
            up, down = tele._d_batch(g + h, P_14)[0], tele._d_batch(g - h, P_14)[0]
            central = (up - down) / (2.0 * h)
            analytic = tele._d_batch(g, P_14)[1]
            assert abs(analytic - central) <= 1e-6 * abs(central)

    def test_two_sigma_is_no_special_point(self):
        # D is finite at 2 sigma_j, where det M breaks down, and nonzero for {1,4};
        # a constant profile has there the simple zero of its k = 0 flux mode,
        # D = 4 sin^2(t/2) ~ q
        for g in [0.0] + [2.0 * s for _, s in P_14.pieces]:
            d, dd, err = tele._d_batch(g, P_14)
            assert np.isfinite([d, dd, err]).all()
        assert characteristic(0.0, P_14) == 0.0
        assert characteristic(2.0 * math.pi, P_14).real == pytest.approx(-3.3906, abs=1e-4)
        p = halves(math.pi, math.pi)
        d, dd, _ = tele._d_batch(2.0 * math.pi, p)
        assert abs(d) < 1e-15 and abs(dd) > 1.0


@pytest.fixture(scope="module")
def gap_14() -> GapResult:
    return telegrapher_gap(P_14)


class TestGap:
    def test_reported_value(self, gap_14):
        assert gap_14.gap == pytest.approx(2.72831, abs=1e-3)

    def test_minimiser_recorded(self, gap_14):
        # the strip search answers the open question empirically: real
        assert gap_14.minimiser_is_real

    def test_roots_validated(self, gap_14):
        for r in gap_14.roots:
            assert abs(characteristic(r, P_14)) < 1e-9
            assert 0.0 < r.real

    def test_conjugate_pairing(self, gap_14):
        for r in gap_14.roots:
            if abs(r.imag) > 1e-9:
                assert any(abs(np.conj(r) - s) < 1e-8 for s in gap_14.roots)

    def test_constant_case_closed_form(self):
        res = telegrapher_gap(halves(math.pi, math.pi))
        assert res.gap == pytest.approx(math.pi, abs=1e-6)

    def test_gap_within_strip_bound(self, gap_14):
        assert gap_14.gap <= 2.0 * min(s for _, s in P_14.pieces)

    def test_empty_strip_raises(self):
        with pytest.raises(NumericalError):
            telegrapher_gap(
                halves(math.pi, 4 * math.pi, re_max=0.5, im_max=0.5),
                seeds=(10, 10),
            )
        # the strip Re < 2 min sigma~ of (0.25, 4) holds no eigenvalue
        with pytest.raises(NumericalError, match="no eigenvalues found"):
            telegrapher_gap(halves(0.25 * math.pi, 4.0 * math.pi, re_max=0.5 * math.pi))


def edge_samples(a: complex, b: complex) -> np.ndarray:
    """Evenly spaced samples of the edge [a, b), one edge at a time in complex scalar arithmetic."""
    length = abs(b - a)
    n = max(4, math.ceil(length / tele._SAMPLE_SPACING))
    return a + (b - a) / length * (length * np.arange(n) / n)


def contour_samples(box) -> np.ndarray:
    """The samples of a box's counter-clockwise contour, edge by edge, closed by its first corner."""
    x0, x1, y0, y1 = box
    corners = [complex(x0, y0), complex(x1, y0), complex(x1, y1), complex(x0, y1)]
    edges = [edge_samples(a, b) for a, b in zip(corners, corners[1:] + corners[:1])]
    return np.concatenate(edges + [np.array(corners[:1])])


def _is_double(r: complex, problem: TelegrapherProblem) -> bool:
    # D ~ c (gamma - r)^2: the central difference over +-h is O(h) of D(r + h)
    h = 1e-4
    up, down = characteristic(r + h, problem), characteristic(r - h, problem)
    return abs(up - down) < 1e-2 * abs(up)


#: (sigma~ / pi, re_max, count, distinct roots, gap, sum of Re, sum of |Im|)
#: over the roots, re_max None standing for the strip 0 < Re < 2 min sigma~
#: that these were found on by the earlier search on H = t1 t2 det M, which
#: cut squares out of the strip around 2 sigma_j. Its one error: for (2, 2)
#: with re_max = 6 pi it subtracted the simple root 4 pi = 2 sigma~ as a
#: hole, so that row has one root, 4 pi, more than H's search found.
REFERENCE_SEARCHES = [
    ((1.0, 4.0), None, 9, 9, 2.7283068516652795, 45.54162827272019, 105.92230178638967),
    ((2.93, 0.402), None, 2, 2, 2.324635564635296, 4.649271129270592, 9.26698069294766),
    ((1.34, 5.46), None, 18, 18, 1.842547399630936, 121.71892752133962, 413.02209716502864),
    ((1.0, 1.0), None, 8, 4, 3.1415926535895156, 12.56637061435887, 35.21746824124518),
    ((2.0, 2.0), None, 16, 7, 6.283185288330822, 43.98229713140885, 105.9780000396621),
    (
        (2.0, 2.0),
        6.0 * math.pi,
        17,
        8,
        6.283185307179157,
        43.98229715307014 + 4.0 * math.pi,
        105.97800001598722,
    ),
    ((4.0, 1.0), None, 9, 9, 2.728306851665281, 45.541628272720196, 105.92230178638964),
    ((4.0, 1.0), 3.0 * math.pi, 27, 27, 2.728306851665281, 187.16933030797767, 791.7335438581522),
    ((17.02, 17.24), None, 139, 139, 0.3680489917792729, 7426.165875770423, 13439.962756880777),
    ((0.728, 20.274), None, 25, 25, 0.5115730811127438, 89.49984524630332, 797.0430974307353),
    ((1.05, 1.07), None, 8, 8, 3.3298384561534613, 26.6402894446926, 69.78061459202144),
    ((0.5, 3.0), None, 2, 2, 2.638179012371473, 5.276358024742946, 9.062291252370645),
    ((3.0, 0.7), None, 4, 4, 3.262465110233382, 14.74976349866892, 29.783323190364985),
    ((6.0, 9.0), None, 68, 68, 0.8444026185856782, 1499.790054876651, 3811.4738167680066),
]


class TestCertificate:
    @pytest.mark.parametrize("pair, re_max, count, distinct, gap, sum_re, sum_im", REFERENCE_SEARCHES)
    def test_reference_searches(self, pair, re_max, count, distinct, gap, sum_re, sum_im):
        # simple roots agree to 1e-13, the fourfold sigma == 2 root and the
        # near-double (17.02, 17.24) pair to 3e-7
        if re_max is None:
            re_max = 2.0 * math.pi * min(pair)
        res = telegrapher_gap(halves(math.pi * pair[0], math.pi * pair[1], re_max=re_max))
        assert (res.count, len(res.roots)) == (count, distinct)
        assert res.gap == pytest.approx(gap, abs=1e-7)
        assert sum(r.real for r in res.roots) == pytest.approx(sum_re, abs=1e-6)
        assert sum(abs(r.imag) for r in res.roots) == pytest.approx(sum_im, abs=1e-6)

    def test_pair_close_to_an_edge_counted(self):
        # the real roots 0.3680490 and 0.3680643 of (17.02, 17.24), 1.5e-5
        # apart: a box whose top edge runs close above them sees their 2 pi
        # turn between two phase samples unless the step is also held to
        # pi/4 / max|D'/D|; on phase steps alone 9 of these 12 boxes count 1
        p = halves(17.02 * math.pi, 17.24 * math.pi)
        for x0, x1, y0 in ((0.36, 0.38, -0.01), (0.3, 0.45, -0.05)):
            for y1 in (1.2e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2):
                assert tele._zeros_inside([(x0, x1, y0, y1)], p)[0].tolist() == [2]

    @pytest.mark.parametrize("re_max", [1e-7, 1.5e-6, 1e-3])
    def test_narrow_strip_finds_no_eigenvalue(self, re_max):
        # the boxes reach from -_MARGIN to re_max and hold only the mass mode, booked
        p = halves(math.pi, 4 * math.pi, re_max=re_max)
        assert [(box.count, box.roots[0][0]) for box in tele._strip_boxes(p)] == [(1, 0j)]
        with pytest.raises(NumericalError, match="no eigenvalues found in the search strip"):
            telegrapher_gap(p)

    def test_strip_of_tiny_damping_exits_on_an_empty_count(self):
        # pc:1e-8@pi,1@2pi on the strip 0 < Re < 2 min sigma~ = 2 pi 1e-8
        p = halves(1e-8 * math.pi, math.pi, re_max=2e-8 * math.pi)
        with pytest.raises(NumericalError, match="no eigenvalues found in the search strip"):
            telegrapher_gap(p)

    @pytest.mark.parametrize(
        "problem",
        [
            P_14,
            halves(2.93 * math.pi, 0.402 * math.pi),
            halves(1.34 * math.pi, 5.46 * math.pi),
            rescale_sigma(RelaxationProfile.parse("pc:1@1,4@3,0.5@2pi")),
            halves(math.pi, math.pi),
        ],
        ids=["1-4", "2.93-0.402", "1.34-5.46", "three-pieces", "constant"],
    )
    def test_only_the_mass_mode_lies_left_of_the_strip(self, problem):
        # Re gamma = <sigma~ phi, phi> / |phi|^2 > 0 at every eigenvalue off the real axis, and
        # no real gamma < 0 is one: the left margin holds no zero, the square about 0 one
        m, y = tele._MARGIN, problem.im_max
        counts = tele._zeros_inside([(-m, -0.01, -y, y), (-0.01, 0.01, -0.01, 0.01)], problem)[0]
        assert counts.tolist() == [0, 1]

    @pytest.mark.parametrize("problem", [halves(math.pi, math.pi), TelegrapherProblem(((1.0, 3.7 * math.pi),))])
    def test_known_zeros_are_booked_not_reported(self, problem):
        # a constant profile's default strip ends at its zero 2 sigma~, booked like the mass mode
        two_sigma = 2.0 * problem.pieces[0][1]
        assert tele._known_zeros(problem) == (0j, complex(two_sigma))
        assert tele._known_zeros(replace(problem, re_max=3.0 * two_sigma)) == (0j,)
        res = telegrapher_gap(problem)
        assert len(res.roots) > 0
        assert min(min(abs(r), abs(r - two_sigma)) for r in res.roots) > 1.0

    @pytest.mark.parametrize("pair", [(1.0, 4.0), (1.34, 5.46), (17.02, 17.24)])
    def test_strip_boxes_take_at_most_four_batches(self, pair, monkeypatch):
        # the edges lie at least _MARGIN from gamma = 0, so the first samples resolve the phase there
        p = halves(math.pi * pair[0], math.pi * pair[1])
        batches = []
        real_batch = tele._d_batch
        monkeypatch.setattr(tele, "_d_batch", lambda g, q: batches.append(1) or real_batch(g, q))
        tele._strip_boxes(p)
        assert len(batches) <= 4

    @pytest.mark.parametrize("pair", [(1.0, 4.0), (2.93, 0.402), (1.34, 5.46)])
    def test_contours_are_the_edge_by_edge_samples_bit_for_bit(self, pair, monkeypatch):
        # every contour is laid in one pass: the same samples, so the same counts, as
        # edge_samples lays one edge at a time, on the strip's boxes, one split of them
        # and the multiplicity squares around its roots
        p = halves(math.pi * pair[0], math.pi * pair[1])
        strip = tele._strip_boxes(p)
        batches = []
        real_inside = tele._zeros_inside
        monkeypatch.setattr(
            tele, "_zeros_inside", lambda boxes, q, *args: batches.append(boxes) or real_inside(boxes, q, *args)
        )
        tele._split(strip, p)
        (split,) = batches
        roots = telegrapher_gap(p).roots
        ladder = [(r.real - h, r.real + h, r.imag - h, r.imag + h) for r in roots for h in tele._MULTIPLICITY_SQUARES]
        for boxes in ([(box.x0, box.x1, box.y0, box.y1) for box in strip], split, ladder):
            z, owner = tele._contours(boxes)
            want = [contour_samples(box) for box in boxes]
            assert np.array_equal(z, np.concatenate(want))
            assert np.array_equal(owner, np.repeat(np.arange(len(boxes)), [w.size for w in want]))

    def test_a_batch_past_the_sample_bound_raises_before_any_evaluation(self, monkeypatch):
        # 230 squares of half-side 1e-6 lay 17 samples each, 3910 in all, past 4e6 / 1024
        # pieces = 3906, though their edges' lengths over the spacing make only 4 each
        p = TelegrapherProblem(tuple((1.0 / 1024.0, 1.0 + k % 7) for k in range(1024)))
        squares = [(1.0 + k / 64 - 1e-6, 1.0 + k / 64 + 1e-6, 0.5 - 1e-6, 0.5 + 1e-6) for k in range(230)]
        calls = []
        monkeypatch.setattr(tele, "_d_batch", lambda *args: calls.append(1))
        with pytest.raises(NumericalError, match="over 3906 samples in one batch of contours, the bound at 1024 pieces"):
            tele._zeros_inside(squares, p)
        assert calls == []
        assert tele._contours(squares)[0].size == 230 * 17

    @pytest.mark.parametrize("pair", [(1.0, 4.0), (2.93, 0.402), (1.34, 5.46)])
    def test_moment_seeds_lie_next_to_the_roots(self, pair):
        # the strip boxes' power sums give one seed per zero, each within 1e-2 of
        # the box's half-side of its own root (measured: at most 1.5e-3)
        p = halves(math.pi * pair[0], math.pi * pair[1])
        roots = telegrapher_gap(p).roots
        seeded = 0
        for box in tele._strip_boxes(p):
            n = box.missing()  # the mass mode booked in the middle row
            inside = [r for r in roots if box.x0 < r.real < box.x1 and box.y0 < r.imag < box.y1]
            seeds = tele._moment_seeds(box)
            assert len(seeds) == len(inside) == n
            reach = 1e-2 * box.size() / 2.0
            assert sorted(np.argmin([abs(z - r) for r in inside]) for z in seeds) == list(range(n))
            assert all(min(abs(z - r) for r in inside) < reach for z in seeds)
            seeded += n
        assert seeded == len(roots)

    @pytest.mark.parametrize(
        "zeros, found, count, sums, want, tol",
        [
            # three simple zeros, recovered from their exact power sums
            ([1.5 + 0.3j, 2.2 - 0.5j, 2.7 + 0.1j], [], 3, None, [1.5 + 0.3j, 2.2 - 0.5j, 2.7 + 0.1j], 1e-12),
            # a double zero splits into two seeds within about sqrt(eps) of it
            ([2.3 + 0.2j] * 2, [], 2, None, [2.3 + 0.2j] * 2, 1e-6),
            # a root already found is deflated out of the sums: two seeds for the two left
            ([1.5 + 0.3j, 2.2 - 0.5j, 2.7 + 0.1j], [2.2 - 0.5j], 3, None, [1.5 + 0.3j, 2.7 + 0.1j], 1e-12),
            # more zeros missing than the sums carry
            ([], [], 5, None, [math.nan] * 5, None),
            # sums that are not finite, or whose polynomial's coefficients overflow
            ([], [], 2, [math.nan, 1.0, 1.0, 1.0], [math.nan] * 2, None),
            ([], [], 3, [1.0, math.inf, 1.0, 1.0], [math.nan] * 3, None),
            ([], [], 2, [1e200, 1e200, 0.0, 0.0], [math.nan] * 2, None),
        ],
        ids=["simple", "double", "deflated", "past-the-sums", "nan", "inf", "overflow"],
    )
    def test_moment_seeds_from_exact_power_sums(self, zeros, found, count, sums, want, tol):
        # the box 1 < Re < 3, |Im| < 1 about its centre 2, with the power sums p = 1 .. _BUSY
        # of the zeros it holds; np.roots raising LinAlgError on NaN or inf would fail here
        if sums is None:
            sums = [sum((z - 2.0) ** p for z in zeros) for p in range(1, tele._BUSY + 1)]
        box = tele._Box(1.0, 3.0, -1.0, 1.0, count, np.array(sums, dtype=complex), [(r, 1, 1e-6) for r in found])
        seeds = tele._moment_seeds(box)
        assert seeds.shape == (len(want),)
        if tol is None:
            assert np.isnan(seeds).all()
        else:
            assert all(min(abs(s - z) for s in seeds) < tol for z in want)
            assert all(min(abs(s - z) for z in want) < tol for s in seeds)

    def test_seek_lays_the_grid_where_the_sums_give_no_seeds(self, monkeypatch):
        # a box of the {1,4} strip with NaN sums: Newton starts from the 2 x 3 seeds grid
        box = tele._strip_boxes(P_14)[0]
        box.sums = np.full(tele._BUSY, np.nan, dtype=complex)
        starts = []
        newton = tele._newton
        monkeypatch.setattr(tele, "_newton", lambda z, *rest: starts.append(z.copy()) or newton(z, *rest))
        tele._seek([box], P_14, (2, 3))
        re = box.x0 + (box.x1 - box.x0) * np.array([0.25, 0.75])
        im = box.y0 + (box.y1 - box.y0) * np.array([1.0, 3.0, 5.0]) / 6.0
        assert np.array_equal(starts[0], (re[:, None] + 1j * im[None, :]).ravel())

    @pytest.mark.parametrize(
        "pair, count", [((1.0, 4.0), 9), ((2.93, 0.402), 2), ((1.34, 5.46), 18)]
    )
    def test_count_met_by_simple_roots(self, pair, count):
        problem = halves(math.pi * pair[0], math.pi * pair[1], re_max=2.0 * math.pi * min(pair))
        res = telegrapher_gap(problem)
        assert res.count == count
        assert len(res.roots) == count
        assert not any(_is_double(r, problem) for r in res.roots)

    def test_row_cut_through_a_double_root_moves(self, monkeypatch):
        # sigma~ = s = 20 pi / 13: the double roots s +- i sqrt(4 pi^2 k^2 - s^2) of
        # k = 2 lie at Im = +-12 s / 5, on the cuts of the strip's five rows
        s = 20.0 * math.pi / 13.0
        p = halves(s, s)
        res = telegrapher_gap(p)
        assert res.count == 12 and len(res.roots) == 6
        for k in (1, 2, 3):
            for sign in (1, -1):
                want = s + sign * 1j * math.sqrt(4.0 * math.pi**2 * k * k - s * s)
                assert min(abs(r - want) for r in res.roots) < 1e-6
        assert res.gap == pytest.approx(s, abs=1e-9)
        monkeypatch.setattr(tele, "_ROW_SHIFTS", (0.0,))
        with pytest.raises(NumericalError, match="count failed on 4 of 5 boxes"):
            tele._strip_boxes(p)

    def test_split_through_a_root_moves(self, monkeypatch):
        # the first split of this box cuts Re = s, through the double root s + i 4.0148
        s = 20.0 * math.pi / 13.0
        p = halves(s, s)
        box = tele._Box(s - 0.94, s + 1.06, 3.0, 5.0, 2)
        children = tele._split([box], p)
        assert sum(child.count for child in children) == 2
        assert all(child.x0 != box.x0 + 0.47 * 2.0 for child in children)
        monkeypatch.setattr(tele, "_SPLITS", tele._SPLITS[:1])
        with pytest.raises(NumericalError, match="fails to count"):
            tele._split([box], p)

    def test_double_roots_counted_twice(self):
        # sigma~ = (pi, pi): D = 4 sin^2(t/2), double roots where t = 2 pi k,
        # gamma = pi +- i pi sqrt(4k^2 - 1); k = 1, 2 lie in the strip
        p = halves(math.pi, math.pi)
        res = telegrapher_gap(p)
        assert res.count == 8
        assert len(res.roots) == 4
        for k in (1, 2):
            for sign in (1, -1):
                want = math.pi + sign * 1j * math.pi * math.sqrt(4 * k * k - 1)
                assert min(abs(r - want) for r in res.roots) < 1e-6
        assert all(_is_double(r, p) for r in res.roots)

    @pytest.mark.parametrize(
        "re_max, count", [(None, 16), (6.0 * math.pi, 17)], ids=["default-strip", "wide-strip"]
    )
    def test_defective_quadruple_root(self, re_max, count):
        # sigma == 2: t1 = t2 = t and gamma = 2 pi is a fourfold zero of D,
        # fixed only to about eps^(1/4); D is rounding noise on small squares
        # there. The wide strip also holds gamma = 4 pi = 2 sigma~, the simple
        # zero q = 0 of D = 4 sin^2(t/2): v = const solves v_tt + 2 sigma~ v_t = 0
        res = telegrapher_gap(halves(2.0 * math.pi, 2.0 * math.pi, re_max=re_max))
        assert res.count == count
        assert min(abs(r - 2.0 * math.pi) for r in res.roots) < 1e-6
        assert res.gap == pytest.approx(2.0 * math.pi, abs=1e-6)
        if re_max is not None:
            assert min(abs(r - 4.0 * math.pi) for r in res.roots) < 1e-9

    def test_wide_strip_past_two_sigma(self):
        # re_max past 2 sigma_2 = 2 pi, where det M breaks down: D is regular
        # there, and the strip's roots left of 2 pi are the default strip's
        p41 = halves(4.0 * math.pi, math.pi, re_max=2.0 * math.pi)
        default = telegrapher_gap(p41)
        wide = telegrapher_gap(halves(4.0 * math.pi, math.pi, re_max=3.0 * math.pi))
        assert wide.count == len(wide.roots) >= default.count == 9
        inside = [r for r in wide.roots if r.real < p41.re_max]
        assert len(inside) == default.count

    def test_near_double_real_pair(self):
        # D changes sign twice within 2e-5 near 0.36805: the real scan sees
        # neither root, and undeflated grid Newton finds only the second
        p = halves(17.02 * math.pi, 17.24 * math.pi)
        assert characteristic(0.368045, p).real > 0.0 > characteristic(0.36805, p).real
        assert characteristic(0.36806, p).real < 0.0 < characteristic(0.368065, p).real
        res = telegrapher_gap(p)
        assert res.count == len(res.roots) == 139
        assert 0.368045 < res.gap < 0.36805

    def test_roots_whose_determinant_rounds_above_tolerance(self):
        # the rounding bound of D reaches 1e-4 at some roots here, and 16 of
        # the 25 have |D| >= 1e-9: a root passes when |D| is within its
        # rounding bound
        res = telegrapher_gap(halves(0.728 * math.pi, 20.274 * math.pi, re_max=1.456 * math.pi))
        assert res.count == len(res.roots) == 25

    def test_small_seed_grid_refined(self, gap_14, monkeypatch):
        # no moment seeds, so every box takes the grid, one seed a box: the boxes
        # Newton leaves short are split, or searched again deflated
        monkeypatch.setattr(tele, "_moment_seeds", lambda box: np.full(max(box.missing(), 0), np.nan))
        res = telegrapher_gap(P_14, seeds=(1, 1))
        assert res.count == gap_14.count == len(res.roots)
        for r in gap_14.roots:
            assert min(abs(r - s) for s in res.roots) < 1e-8

    def test_shortfall_raises(self, monkeypatch):
        # Newton that never moves finds a root only where a seed from the power sums of a box
        # split small already meets |D| < 1e-9, as two near Im = 42 and 49 do; every other box
        # is split until too small, then given up
        monkeypatch.setattr(tele, "_newton", lambda seeds, *args: seeds)
        with pytest.raises(NumericalError, match="found 2 of 17 counted roots"):
            telegrapher_gap(P_14)

    @pytest.mark.parametrize(
        "top, count, gap", [(50.0, 221, 0.2079337026326672), (100.0, 443, 0.10436391454352467)]
    )
    def test_stiff_profiles_find_every_counted_root(self, top, count, gap):
        # pc:1@pi,top@2pi: 221 roots in 6-7 s from seed grids up to 200 x 200, and
        # for top = 100 only 425 of 443; the gap of 50 is that search's
        res = telegrapher_gap(halves(math.pi, top * math.pi))
        assert res.count == len(res.roots) == count
        assert res.gap == pytest.approx(gap, abs=1e-8)

    @pytest.mark.parametrize(
        "pair, bound, calls", [((1.0, 4.0), 5500, 8), ((2.93, 0.402), 3900, 9), ((1.34, 5.46), 7300, 8)]
    )
    def test_search_work_is_bounded(self, pair, bound, calls, monkeypatch):
        # D evaluations and _d_batch calls of one default-strip search: 4241, 2767
        # and 5726 in 5, 7 and 6 calls on boxes whose edges stay clear of gamma = 0,
        # against 4910, 3429 and 6503 in 6, 7 and 6 with notches cut around it and
        # samples graded toward them; with the notches, 5639, 3819 and 7286 in 17, 15
        # and 18 calls from a 3 x 3 grid a box in place of the power sums' seeds, and
        # 16927, 14468 and 20343 from a real scan and a 30 x 30 grid
        evaluations = []
        real_batch = tele._d_batch
        monkeypatch.setattr(tele, "_d_batch", lambda g, q: evaluations.append(np.size(g)) or real_batch(g, q))
        telegrapher_gap(halves(math.pi * pair[0], math.pi * pair[1]))
        assert sum(evaluations) <= bound
        assert len(evaluations) <= calls

    def test_bad_seed_grid_rejected(self):
        with pytest.raises(ValidationError):
            telegrapher_gap(P_14, seeds=(0, 30))


class TestPieces:
    """D on N pieces, one product of the pieces' transfer maps."""

    @pytest.mark.parametrize(
        "problem",
        [P_14, halves(17.02 * math.pi, 17.24 * math.pi), TelegrapherProblem(((0.3, 2.0), (0.7, 9.0)))],
        ids=["1-4", "near-equal", "unequal-lengths"],
    )
    def test_two_pieces_match_the_closed_form_within_the_bound(self, problem):
        rng = np.random.default_rng(11)
        re_max, im_max = problem.re_max, problem.im_max
        gammas = rng.uniform(0.0, re_max, 400) + 1j * rng.uniform(-im_max, im_max, 400)
        d, _, err = tele._d_batch(gammas, problem)
        assert np.all(np.abs(d - two_piece_d(gammas, problem)) <= err)

    def test_more_pieces_match_a_long_double_product_within_the_bound(self):
        problem = TelegrapherProblem(((0.2, 1.0), (0.3, 7.0), (0.1, 0.4), (0.4, 3.0)))
        rng = np.random.default_rng(12)
        gammas = rng.uniform(0.0, problem.re_max, 400) + 1j * rng.uniform(-problem.im_max, problem.im_max, 400)
        d, dd, err = tele._d_batch(gammas, problem)
        assert np.all(np.abs(d - long_double_d(gammas, problem).astype(complex)) <= err)
        h = 1e-6 * (1.0 + np.abs(gammas))
        central = (tele._d_batch(gammas + h, problem)[0] - tele._d_batch(gammas - h, problem)[0]) / (2.0 * h)
        assert np.all(np.abs(dd - central) <= 1e-6 * np.abs(central))

    @pytest.mark.parametrize(
        "spec, zero",
        [
            ("pc:1@1,4@3,0.5@2pi", 0.386125 + 0.635476j),
            ("pc:2@0.5,0.3@2,5@4,1@2pi", 0.623432 + 0.438844j),
            # breakpoints on grid nodes: the split scheme's spectrum, extrapolated, gives 0.450377
            ("pc:1@0.5pi,4@1.5pi,0.5@2pi", 0.450377),
        ],
    )
    def test_leading_zeros_of_more_pieces(self, spec, zero):
        res = telegrapher_gap(rescale_sigma(RelaxationProfile.parse(spec)))
        assert abs(res.eigenvalue / (2.0 * math.pi) - zero) < 1e-6

    @pytest.mark.parametrize("sigma", [math.pi, 2.0 * math.pi, 20.0 * math.pi / 13.0])
    def test_one_piece_has_the_roots_of_its_two_halves(self, sigma):
        # double roots, and at 2 pi the fourfold one: 2 - tr T is carried as 2 (1 - s S) - ...,
        # with a = -2 sin^2(x/2) or 2 cos^2(x/2), so that neither form is rounding noise there
        one, two = telegrapher_gap(TelegrapherProblem(((1.0, sigma),))), telegrapher_gap(halves(sigma, sigma))
        assert one.count == two.count and len(one.roots) == len(two.roots)
        assert all(min(abs(r - s) for s in two.roots) < 1e-6 for r in one.roots)

    @pytest.mark.parametrize("seed", range(6))
    def test_splitting_every_piece_keeps_the_roots(self, seed):
        rng = np.random.default_rng(seed)
        n = 3 + seed % 4
        lengths = rng.dirichlet(np.ones(n))
        values = np.exp(rng.uniform(math.log(0.5), math.log(10.0), n))
        problem = TelegrapherProblem(tuple(zip(lengths.tolist(), values.tolist())))
        split = TelegrapherProblem(tuple((length / 2.0, s) for length, s in problem.pieces for _ in (0, 1)))
        res, halved = telegrapher_gap(problem), telegrapher_gap(split)
        assert halved.count == res.count
        assert halved.gap == pytest.approx(res.gap, rel=1e-12, abs=0.0)


class TestDefaultStrip:
    """0 < Re < max(2 min sigma~, |sigma~|_L1): the strip reaches the L1 norm, where
    min(|sigma~|_L1, gap) is set, and keeps the gap found on 0 < Re < 2 min sigma~."""

    @pytest.mark.parametrize(
        "pair, count, gap",
        [((0.05, 1.0), 4, 1.325133981), ((0.25, 4.0), 17, 1.883884360)],
    )
    def test_profiles_whose_narrow_strip_held_no_root(self, pair, count, gap):
        problem = halves(math.pi * pair[0], math.pi * pair[1])
        assert problem.re_max == problem.l1_norm
        res = telegrapher_gap(problem)
        assert res.count == len(res.roots) == count
        assert res.gap == pytest.approx(gap, abs=1e-9)
        assert res.gap < problem.l1_norm

    @pytest.mark.parametrize("pair, count", [((1.0, 4.0), 17), ((2.93, 0.402), 12), ((1.34, 5.46), 24)])
    def test_rate_certify_profiles_keep_their_gap(self, pair, count):
        problem = halves(math.pi * pair[0], math.pi * pair[1])
        narrow = replace(problem, re_max=2.0 * math.pi * min(pair))
        res = telegrapher_gap(problem)
        assert res.count == len(res.roots) == count
        assert not any(_is_double(r, problem) for r in res.roots)
        assert res.gap == pytest.approx(telegrapher_gap(narrow).gap, abs=1e-9)


def bs_rate(profile) -> float:
    """The Bernard-Salvarani rate the CLI reports: one search, then ``optimal_rate``."""
    problem = rescale_sigma(profile)
    return optimal_rate(problem, telegrapher_gap(problem))


class TestBsRate:
    @pytest.mark.parametrize(
        "pair, bound", [((1.0, 4.0), 3e-3), ((1.34, 5.46), 3e-3), ((2.93, 0.402), 1e-2)]
    )
    def test_simulated_decay_matches_optimal_rate(self, pair, bound):
        # the optimal rate, like alpha*, is a rate of the quadratic entropy,
        # so the pair norm decays at half of it. Measured at n = 256, T = 40, every
        # 8th step recorded, seeds 0-1: +0.07 % and +0.11 % on (1, 4), +0.15 %
        # and +0.18 % on (1.34, 5.46), +0.36 % and +0.78 % on (2.93, 0.402),
        # whose fit window still holds more of the faster modes
        profile = RelaxationProfile.two_piece(*pair)
        want = bs_rate(profile) / 2.0
        for seed in (0, 1):
            init = MacroState2V(
                random_band_limited(256, seed=seed, zero_mean=True),
                random_band_limited(256, seed=1000 + seed),
            )
            traj = simulate_2v(init, profile, 40.0, theta=rate_2v(profile).theta, record_every=8)
            fitted, _ = fit_decay_rate(traj.times, traj.pair_norm())
            assert abs(fitted / want - 1.0) < bound

    def test_one_four(self):
        assert bs_rate(PROFILE_14) == pytest.approx(0.86845, abs=1e-3)

    def test_constant_profile_pipeline(self):
        # sigma == 1: gap = pi and |sigma~|_L1 = pi, so the rate is 1;
        # recorded as a cross-check of conventions, not a theorem assertion
        assert bs_rate(RelaxationProfile.constant(1.0)) == pytest.approx(1.0, abs=1e-6)

    def test_three_rate_ordering(self):
        from gtlab.poincare import improved_alpha
        from gtlab.rates import alpha_star, theta_star

        a1 = alpha_star(1.0, 4.0)
        a2 = improved_alpha(PROFILE_14, theta_star(1.0, 4.0), a1).alpha_max
        a3 = bs_rate(PROFILE_14)
        assert a1 == pytest.approx(0.5359, abs=1e-3)
        assert a2 == pytest.approx(0.7234, abs=1e-3)
        assert a3 == pytest.approx(0.86845, abs=1e-3)
        assert a1 < a2 < a3
