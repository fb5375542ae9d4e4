"""Damped-wave spectral gap via the transfer-matrix function D = 2 - tr(T2 T1)."""

import math

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

PROFILE_14 = RelaxationProfile.two_piece(1.0, 4.0)
P_14 = TelegrapherProblem(math.pi, 4.0 * math.pi)


def _tau(gamma, sigma_j):
    return np.sqrt(gamma * (2.0 * sigma_j - gamma) + 0j)


def matching_matrix(gamma: complex, problem: TelegrapherProblem) -> np.ndarray:
    """The printed 4x4 C^1-matching matrix of the two pieces; det M = -(t2/t1) D."""
    t1 = _tau(gamma, problem.sigma1)
    t2 = _tau(gamma, problem.sigma2)
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
    t1, t2 = _tau(gamma, problem.sigma1), _tau(gamma, problem.sigma2)
    return -(t2 / t1) * characteristic(gamma, problem)


class TestRescale:
    def test_one_four(self):
        p = rescale_sigma(PROFILE_14)
        assert p.sigma1 == pytest.approx(math.pi)
        assert p.sigma2 == pytest.approx(4.0 * math.pi)
        assert p.l1_norm == pytest.approx(5.0 * math.pi / 2.0)

    def test_constant(self):
        p = rescale_sigma(RelaxationProfile.constant(1.0))
        assert p.sigma1 == pytest.approx(math.pi)
        assert p.sigma2 == pytest.approx(math.pi)

    def test_two_equal_pieces(self):
        p = rescale_sigma(RelaxationProfile.two_piece(2.0, 2.0))
        assert p.sigma1 == p.sigma2 == pytest.approx(2.0 * math.pi)

    def test_strip_defaults(self):
        assert P_14.re_max == pytest.approx(2.0 * math.pi)
        assert P_14.im_max > 0

    def test_unsupported_profile(self):
        three = RelaxationProfile.piecewise([(1.0, 1.0), (2.0, 2.0), (2 * math.pi, 3.0)])
        with pytest.raises(ValidationError):
            rescale_sigma(three)


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
            t1, t2 = _tau(g, P_14.sigma1), _tau(g, P_14.sigma2)
            q1, q2 = t1**2, t2**2
            want = characteristic(g, P_14)
            for signs in ((1, 1), (-1, 1), (1, -1), (-1, -1)):
                got = d_of(signs[0] * t1, signs[1] * t2, q1, q2)
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    def test_constant_pieces_match_modal_eigenvalues(self):
        # sigma1 = sigma2 = pi: roots at gamma = pi +- sqrt(pi^2 - 4 pi^2 k^2),
        # the constant-coefficient modal eigenvalues after the torus rescaling
        p = TelegrapherProblem(math.pi, math.pi)
        for k in (1, 2):
            gamma = math.pi + 1j * math.sqrt(4.0 * math.pi**2 * k**2 - math.pi**2)
            assert abs(characteristic(gamma, p)) < 1e-9

    def test_entire_form_matches_determinant(self):
        # -(t2/t1) D against the printed closed form of det M, also far off the
        # real axis where the 4x4 matrix has entries of size e^|Im t|
        for g in (1.2 + 3.4j, 0.5 - 2.0j, 4.0 + 0.1j, 7.5 + 9.0j, 20.0 - 30.0j):
            t1, t2 = _tau(g, P_14.sigma1), _tau(g, P_14.sigma2)
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
        for s in (P_14.sigma1, P_14.sigma2):
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
        for g in (0.0, 2.0 * P_14.sigma1, 2.0 * P_14.sigma2):
            d, dd, err = tele._d_batch(g, P_14)
            assert np.isfinite([d, dd, err]).all()
        assert characteristic(0.0, P_14) == 0.0
        assert characteristic(2.0 * math.pi, P_14).real == pytest.approx(-3.3906, abs=1e-4)
        p = TelegrapherProblem(math.pi, math.pi)
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
        res = telegrapher_gap(TelegrapherProblem(math.pi, math.pi))
        assert res.gap == pytest.approx(math.pi, abs=1e-6)

    def test_gap_within_strip_bound(self, gap_14):
        assert gap_14.gap <= 2.0 * min(P_14.sigma1, P_14.sigma2)

    def test_empty_strip_raises(self):
        with pytest.raises(NumericalError):
            telegrapher_gap(
                TelegrapherProblem(math.pi, 4 * math.pi, re_max=0.5, im_max=0.5),
                seeds=(10, 10),
            )
        # the default strip Re < 2 min sigma~ of (0.25, 4) holds no eigenvalue
        with pytest.raises(NumericalError, match="no eigenvalues found"):
            telegrapher_gap(TelegrapherProblem(0.25 * math.pi, 4.0 * math.pi))


def _is_double(r: complex, problem: TelegrapherProblem) -> bool:
    # D ~ c (gamma - r)^2: the central difference over +-h is O(h) of D(r + h)
    h = 1e-4
    up, down = characteristic(r + h, problem), characteristic(r - h, problem)
    return abs(up - down) < 1e-2 * abs(up)


#: (sigma~ / pi, re_max, count, distinct roots, gap, sum of Re, sum of |Im|)
#: over the roots, as found by the earlier search on H = t1 t2 det M, which
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
        res = telegrapher_gap(TelegrapherProblem(math.pi * pair[0], math.pi * pair[1], re_max=re_max))
        assert (res.count, len(res.roots)) == (count, distinct)
        assert res.gap == pytest.approx(gap, abs=1e-7)
        assert sum(r.real for r in res.roots) == pytest.approx(sum_re, abs=1e-6)
        assert sum(abs(r.imag) for r in res.roots) == pytest.approx(sum_im, abs=1e-6)

    def test_pair_close_to_an_edge_counted(self):
        # the real roots 0.3680490 and 0.3680643 of (17.02, 17.24), 1.5e-5
        # apart: a box whose top edge runs close above them sees their 2 pi
        # turn between two phase samples unless the step is also held to
        # pi/4 / max|D'/D|; on phase steps alone 9 of these 12 boxes count 1
        p = TelegrapherProblem(17.02 * math.pi, 17.24 * math.pi)
        for x0, x1, y0 in ((0.36, 0.38, -0.01), (0.3, 0.45, -0.05)):
            for y1 in (1.2e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2):
                box = [complex(x0, y0), complex(x1, y0), complex(x1, y1), complex(x0, y1)]
                assert tele._zeros_inside(box, p) == 2

    @pytest.mark.parametrize("re_max", [1e-7, 1.5e-6, 1e-3])
    def test_narrow_strip_counts_none_and_keeps_its_middle(self, re_max):
        # notches of half-side min(1e-6, re_max/4) never meet: two of 1e-6 on a
        # strip 1e-7 wide overlapped, and its contour counted -1
        p = TelegrapherProblem(math.pi, 4 * math.pi, re_max=re_max)
        assert tele._strip_count(p) == 0
        middle = np.array([re_max / 2, re_max / 2 + 1e-9j])
        assert tele._in_strip(middle, p).all()

    def test_strip_narrower_than_the_notches_exits_on_an_empty_count(self):
        # pc:1e-8@pi,1@2pi: re_max = 2 pi 1e-8
        p = rescale_sigma(RelaxationProfile.two_piece(1e-8, 1.0))
        assert tele._strip_count(p) == 0
        with pytest.raises(NumericalError, match="no eigenvalues found in the search strip"):
            telegrapher_gap(p)

    @pytest.mark.parametrize("pair", [(1.0, 4.0), (1.34, 5.46), (17.02, 17.24)])
    def test_strip_count_takes_at_most_three_batches(self, pair, monkeypatch):
        # samples graded toward the notches at 0 and re_max resolve the phase
        # there at once; evenly spaced ones took 17 rounds of bisection toward 0
        p = TelegrapherProblem(math.pi * pair[0], math.pi * pair[1])
        batches = []
        real_batch, real_inside = tele._d_batch, tele._zeros_inside
        monkeypatch.setattr(tele, "_d_batch", lambda g, q: batches.append(1) or real_batch(g, q))
        count = tele._strip_count(p)
        assert len(batches) <= 3
        monkeypatch.setattr(tele, "_zeros_inside", lambda v, q, centres=(): real_inside(v, q))
        assert tele._strip_count(p) == count  # the same on evenly spaced samples

    @pytest.mark.parametrize(
        "pair, count", [((1.0, 4.0), 9), ((2.93, 0.402), 2), ((1.34, 5.46), 18)]
    )
    def test_count_met_by_simple_roots(self, pair, count):
        problem = TelegrapherProblem(math.pi * pair[0], math.pi * pair[1])
        res = telegrapher_gap(problem)
        assert res.count == count
        assert len(res.roots) == count
        assert not any(_is_double(r, problem) for r in res.roots)

    def test_double_roots_counted_twice(self):
        # sigma~ = (pi, pi): D = 4 sin^2(t/2), double roots where t = 2 pi k,
        # gamma = pi +- i pi sqrt(4k^2 - 1); k = 1, 2 lie in the strip
        p = TelegrapherProblem(math.pi, math.pi)
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
        res = telegrapher_gap(TelegrapherProblem(2.0 * math.pi, 2.0 * math.pi, re_max=re_max))
        assert res.count == count
        assert min(abs(r - 2.0 * math.pi) for r in res.roots) < 1e-6
        assert res.gap == pytest.approx(2.0 * math.pi, abs=1e-6)
        if re_max is not None:
            assert min(abs(r - 4.0 * math.pi) for r in res.roots) < 1e-9

    def test_wide_strip_past_two_sigma(self):
        # re_max past 2 sigma_2 = 2 pi, where det M breaks down: D is regular
        # there, and the strip's roots left of 2 pi are the default strip's
        p41 = TelegrapherProblem(4.0 * math.pi, math.pi)
        default = telegrapher_gap(p41)
        wide = telegrapher_gap(TelegrapherProblem(4.0 * math.pi, math.pi, re_max=3.0 * math.pi))
        assert wide.count == len(wide.roots) >= default.count == 9
        inside = [r for r in wide.roots if r.real < p41.re_max]
        assert len(inside) == default.count

    def test_near_double_real_pair(self):
        # D changes sign twice within 2e-5 near 0.36805: the real scan sees
        # neither root, and undeflated grid Newton finds only the second
        p = TelegrapherProblem(17.02 * math.pi, 17.24 * math.pi)
        assert characteristic(0.368045, p).real > 0.0 > characteristic(0.36805, p).real
        assert characteristic(0.36806, p).real < 0.0 < characteristic(0.368065, p).real
        res = telegrapher_gap(p)
        assert res.count == len(res.roots) == 139
        assert 0.368045 < res.gap < 0.36805

    def test_roots_whose_determinant_rounds_above_tolerance(self):
        # the rounding bound of D reaches 1e-4 at some roots here, and 16 of
        # the 25 have |D| >= 1e-9: a root passes when |D| is within its
        # rounding bound
        res = telegrapher_gap(TelegrapherProblem(0.728 * math.pi, 20.274 * math.pi))
        assert res.count == len(res.roots) == 25

    def test_small_seed_grid_refined(self, gap_14):
        res = telegrapher_gap(P_14, seeds=(2, 2))
        assert res.count == gap_14.count == len(res.roots)
        for r in gap_14.roots:
            assert min(abs(r - s) for s in res.roots) < 1e-8

    def test_shortfall_raises(self, monkeypatch):
        monkeypatch.setattr(tele, "_newton", lambda seeds, *args: seeds)
        with pytest.raises(NumericalError, match="found 0 of 9 counted roots"):
            telegrapher_gap(P_14)

    def test_bad_seed_grid_rejected(self):
        with pytest.raises(ValidationError):
            telegrapher_gap(P_14, seeds=(0, 30))


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
