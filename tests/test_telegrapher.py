"""Damped-wave spectral gap via the matching determinant."""

import math

import numpy as np
import pytest

import gtlab.telegrapher as tele
from gtlab.errors import NumericalError, ValidationError
from gtlab.profiles import RelaxationProfile
from gtlab.telegrapher import (
    GapResult,
    TelegrapherProblem,
    bs_rate,
    det_M_gamma,
    matching_matrix,
    rescale_sigma,
    telegrapher_gap,
)

PROFILE_14 = RelaxationProfile.two_piece(1.0, 4.0)
P_14 = TelegrapherProblem(math.pi, 4.0 * math.pi)


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
        assert abs(det_M_gamma(2.72831, P_14)) < 1e-3

    def test_conjugate_symmetry(self):
        for g in (1.2 + 3.4j, 0.5 - 2.0j, 4.0 + 0.1j):
            assert det_M_gamma(np.conj(g), P_14) == pytest.approx(
                np.conj(det_M_gamma(g, P_14))
            )

    def test_matrix_agrees_with_closed_form(self):
        # moderate |Im gamma| keeps the entries O(1), so 1e-12 is meaningful
        rng = np.random.default_rng(3)
        for _ in range(50):
            g = complex(rng.uniform(0.1, 6.0), rng.uniform(-3.0, 3.0))
            det_matrix = np.linalg.det(matching_matrix(g, P_14))
            det_formula = det_M_gamma(g, P_14)
            scale = max(1.0, abs(det_formula))
            assert abs(det_matrix - det_formula) / scale < 1e-12

    def test_branch_flip_leaves_zero_set(self):
        # negating tau_1 flips the sign of the determinant only
        def det_flipped(gamma):
            t1 = -np.sqrt(gamma * (2 * P_14.sigma1 - gamma) + 0j)
            t2 = np.sqrt(gamma * (2 * P_14.sigma2 - gamma) + 0j)
            r = t2 / t1
            return -np.sin(t1 / 2) * np.sin(t2 / 2) * (1 + r**2) + 2 * r * (
                np.cos(t1 / 2) * np.cos(t2 / 2) - 1
            )

        for g in (1.0 + 1.0j, 2.5 - 4.0j, 5.0 + 0.5j):
            assert abs(det_flipped(g)) == pytest.approx(abs(det_M_gamma(g, P_14)), rel=1e-12)

    def test_constant_pieces_match_modal_eigenvalues(self):
        # sigma1 = sigma2 = pi: roots at gamma = pi +- sqrt(pi^2 - 4 pi^2 k^2),
        # the constant-coefficient modal eigenvalues after the torus rescaling
        p = TelegrapherProblem(math.pi, math.pi)
        for k in (1, 2):
            gamma = math.pi + 1j * math.sqrt(4.0 * math.pi**2 * k**2 - math.pi**2)
            assert abs(det_M_gamma(gamma, p)) < 1e-9

    def test_entire_form_matches_determinant(self):
        # H = t1 t2 det M at points off the real axis
        for g in (1.2 + 3.4j, 0.5 - 2.0j, 4.0 + 0.1j, 7.5 + 9.0j, 20.0 - 30.0j):
            v = tele._h_batch(g, P_14)
            t1 = np.sqrt(g * (2 * P_14.sigma1 - g))
            t2 = np.sqrt(g * (2 * P_14.sigma2 - g))
            want = t1 * t2 * det_M_gamma(g, P_14)
            assert abs(complex(v.h) - want) <= 1e-12 * abs(want)

    def test_entire_form_is_even_across_the_branch_cut(self):
        # just above and below the cut gamma > 2 sigma_2, t2 jumps sign; H must not
        g = 30.0
        above = complex(tele._h_batch(g + 1e-9j, P_14).h)
        below = complex(tele._h_batch(g - 1e-9j, P_14).h)
        assert above == pytest.approx(np.conj(below), rel=1e-6)
        assert above == pytest.approx(below, rel=1e-6)

    def test_analytic_derivative_matches_central_difference(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            g = complex(rng.uniform(0.1, 6.0), rng.uniform(-12.0, 12.0))
            h = 1e-6 * (1.0 + abs(g))
            central = (tele._h_batch(g + h, P_14).h - tele._h_batch(g - h, P_14).h) / (2.0 * h)
            analytic = tele._h_batch(g, P_14).dh
            assert abs(analytic - central) <= 1e-6 * abs(central)

    def test_degenerate_branch_raises(self):
        with pytest.raises(NumericalError):
            det_M_gamma(0.0, P_14)
        with pytest.raises(NumericalError):
            det_M_gamma(2.0 * math.pi, P_14)


@pytest.fixture(scope="module")
def gap_14() -> GapResult:
    return telegrapher_gap(P_14)


class TestGap:
    def test_reported_value(self, gap_14):
        assert gap_14.gap == pytest.approx(2.72831, abs=1e-3)

    def test_minimiser_recorded(self, gap_14):
        # the strip search answers the open question empirically: real
        assert gap_14.minimiser_is_real
        assert not gap_14.on_boundary

    def test_roots_validated(self, gap_14):
        for r in gap_14.roots:
            assert abs(det_M_gamma(r, P_14)) < 1e-9
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


def _is_double(r: complex, problem: TelegrapherProblem) -> bool:
    # det ~ c (gamma - r)^2: the central difference over +-h is O(h) of det(r + h)
    h = 1e-4
    up, down = det_M_gamma(r + h, problem), det_M_gamma(r - h, problem)
    return abs(up - down) < 1e-2 * abs(up)


class TestCertificate:
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
        # sigma~ = (pi, pi): det M = -4 sin^2(t/2), double roots where t = 2 pi k,
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

    @pytest.mark.parametrize("re_max", [None, 6.0 * math.pi], ids=["default-strip", "wide-strip"])
    def test_defective_quadruple_root(self, re_max):
        # sigma == 2: t1 = t2 = t and gamma = 2 pi is a fourfold zero of det M,
        # fixed only to about eps^(1/4); H is rounding noise on small squares there
        res = telegrapher_gap(TelegrapherProblem(2.0 * math.pi, 2.0 * math.pi, re_max=re_max))
        assert res.count == 16
        assert min(abs(r - 2.0 * math.pi) for r in res.roots) < 1e-6
        assert res.gap == pytest.approx(2.0 * math.pi, abs=1e-6)

    def test_cut_out_inside_a_wide_strip(self):
        # re_max past 2 sigma_2 = 2 pi, a spurious zero of H: its square is
        # subtracted from the count
        p41 = TelegrapherProblem(4.0 * math.pi, math.pi)
        default = telegrapher_gap(p41)
        wide = telegrapher_gap(TelegrapherProblem(4.0 * math.pi, math.pi, re_max=3.0 * math.pi))
        assert wide.count == len(wide.roots) >= default.count == 9
        inside = [r for r in wide.roots if r.real < p41.re_max]
        assert len(inside) == default.count

    def test_near_double_real_pair(self):
        # det M changes sign twice within 2e-5 near 0.36805: the real scan sees
        # neither root, and undeflated grid Newton finds only the second
        p = TelegrapherProblem(17.02 * math.pi, 17.24 * math.pi)
        assert det_M_gamma(0.368045, p).real < 0.0 < det_M_gamma(0.36805, p).real
        assert det_M_gamma(0.36806, p).real > 0.0 > det_M_gamma(0.368065, p).real
        res = telegrapher_gap(p)
        assert res.count == len(res.roots) == 139
        assert 0.368045 < res.gap < 0.36805

    def test_roots_whose_determinant_rounds_above_tolerance(self):
        # the rounding error of det M reaches 1e-4 at some roots here, and 18 of
        # the 25 have |det M| >= 1e-9: a root passes when H is within its
        # rounding error
        res = telegrapher_gap(TelegrapherProblem(0.728 * math.pi, 20.274 * math.pi))
        assert res.count == len(res.roots) == 25

    def test_small_seed_grid_refined(self, gap_14):
        res = telegrapher_gap(P_14, seeds=(2, 2))
        assert res.count == gap_14.count == len(res.roots)
        for r in gap_14.roots:
            assert min(abs(r - s) for s in res.roots) < 1e-8

    def test_shortfall_raises(self, monkeypatch):
        monkeypatch.setattr(tele, "_newton", lambda seeds, *args: seeds)
        with pytest.raises(NumericalError, match="found 1 of 9 counted roots"):
            telegrapher_gap(P_14)

    def test_bad_seed_grid_rejected(self):
        with pytest.raises(ValidationError):
            telegrapher_gap(P_14, seeds=(0, 30))


class TestBsRate:
    def test_one_four(self):
        rep = bs_rate(PROFILE_14)
        assert rep.rate == pytest.approx(0.86845, abs=1e-3)

    def test_constant_profile_pipeline(self):
        # sigma == 1: gap = pi and |sigma~|_L1 = pi, so the rate is 1;
        # recorded as a cross-check of conventions, not a theorem assertion
        rep = bs_rate(RelaxationProfile.constant(1.0))
        assert rep.rate == pytest.approx(1.0, abs=1e-6)

    def test_three_rate_ordering(self):
        from gtlab.poincare import improved_alpha
        from gtlab.rates import alpha_star, theta_star

        a1 = alpha_star(1.0, 4.0)
        a2 = improved_alpha(PROFILE_14, theta_star(1.0, 4.0), a1).alpha_max
        a3 = bs_rate(PROFILE_14).rate
        assert a1 == pytest.approx(0.5359, abs=1e-3)
        assert a2 == pytest.approx(0.7234, abs=1e-3)
        assert a3 == pytest.approx(0.86845, abs=1e-3)
        assert a1 < a2 < a3
