"""Closed-form rate formulas and admissibility checks."""

import decimal
import math

import numpy as np
import pytest

from gtlab.errors import NumericalError, ValidationError
from gtlab.profiles import RelaxationProfile
from gtlab.rates import (
    alpha_star,
    check_conditions_2v,
    check_conditions_3v,
    constant_rate,
    gamma_bounds,
    rate_2v,
    rate_3v,
    theta_star,
)
from gtlab.rates import _verdict


class TestConstantRate:
    def test_sigma_below_two(self):
        r = constant_rate(1.0)
        assert r.theta == pytest.approx(1.0)
        assert r.mu == pytest.approx(0.5)
        assert r.rate == pytest.approx(1.0)
        assert r.prefactor == pytest.approx(math.sqrt(3.0))

    def test_sigma_five(self):
        r = constant_rate(5.0)
        assert r.mu == pytest.approx((5.0 - math.sqrt(21.0)) / 2.0)
        assert r.theta == pytest.approx(0.8)
        assert r.prefactor == pytest.approx(math.sqrt(7.0 / 3.0))

    @pytest.mark.parametrize("sigma", [2.5, 1e4, 1e8, 1e300])
    def test_mu_is_the_closed_form_at_any_size(self, sigma):
        # sigma/2 - sqrt(sigma^2/4 - 1) in 1000 digits; in floats it would
        # cancel (-25 % at 1e8, 0 at 1e12) and overflow past 1.3e154
        with decimal.localcontext(decimal.Context(prec=1000)):
            s = decimal.Decimal(sigma)
            mu = float(s / 2 - (s * s / 4 - 1).sqrt())
        assert constant_rate(sigma).mu == pytest.approx(mu, rel=1e-15)

    @pytest.mark.parametrize("sigma", [5e-324, 1e-320, 1e-310, 0.3, 1.9])
    def test_rate_below_two_is_sigma_itself(self, sigma):
        # 2 * (sigma/2) would be 0 at 5e-324, where sigma/2 underflows
        assert constant_rate(sigma).rate == sigma

    def test_defective_value(self):
        r = constant_rate(2.0, eps=0.5)
        assert r.theta == pytest.approx(14.0 / 9.0)
        assert r.rate == pytest.approx(1.0)
        assert r.prefactor == pytest.approx(math.sqrt(2.0) / 0.5)
        assert r.defective

    def test_errors(self):
        with pytest.raises(ValidationError):
            constant_rate(-1.0)
        with pytest.raises(ValidationError):
            constant_rate(2.0)
        with pytest.raises(ValidationError):
            constant_rate(2.0, eps=1.5)
        with pytest.raises(ValidationError):
            constant_rate(3.0, eps=0.5)


class TestThetaStar:
    @pytest.mark.parametrize(
        "smin,smax,expected", [(1.0, 4.0, 1.0), (3.0, 3.0, 4.0 / 3.0), (0.5, 1.0, 0.5)]
    )
    def test_values(self, smin, smax, expected):
        assert theta_star(smin, smax) == pytest.approx(expected)

    def test_precondition(self):
        with pytest.raises(ValidationError):
            theta_star(2.0, 1.0)


class TestAlphaStar:
    def test_reference_profile(self):
        assert alpha_star(1.0, 4.0) == pytest.approx(4.0 - math.sqrt(12.0))

    def test_branch_two(self):
        assert alpha_star(2.0, 4.0) == pytest.approx(4.0 - math.sqrt(12.0))

    def test_branch_continuity_on_the_stitching_curve(self):
        for smax in np.linspace(2.01, 10.0, 60):
            smin = 4.0 / smax
            b1 = smin * (4.0 + 2.0 * math.sqrt(4.0 - smin**2) - smin * smax) / (
                4.0 + 2.0 * math.sqrt(4.0 - smin**2) - smin**2
            )
            b2 = smax - math.sqrt(smax**2 - 4.0)
            assert abs(b1 - b2) < 1e-10

    def test_limit_recovery(self):
        # sigma_min, sigma_max -> sigma recovers the constant-sigma rate
        delta = 1e-6
        for s in (0.5, 1.0, 3.0, 5.0):
            th = theta_star(s - delta, s + delta)
            al = alpha_star(s - delta, s + delta)
            assert abs(th - min(s, 4.0 / s)) < 1e-4
            expected = s if s < 2.0 else s - math.sqrt(s**2 - 4.0)
            assert abs(al - expected) < 1e-4

    def test_large_sigma_max_matches_twice_mu(self):
        for smin, smax in ((2.0, 5.0), (1.5, 8.0), (3.0, 3.5)):
            assert smin > 4.0 / smax
            assert alpha_star(smin, smax) == pytest.approx(2.0 * constant_rate(smax).mu)

    @pytest.mark.parametrize("sigma_max", [10.0, 1e4, 1e8, 1e300])
    def test_branch_two_is_twice_mu_at_any_size(self, sigma_max):
        # sigma_max - sqrt(sigma_max^2 - 4) in 1000 digits; in floats it reads
        # 1.4901161e-08 at 1e8 (-25 %), 0 at 1e12 and overflows past 1.3e154
        with decimal.localcontext(decimal.Context(prec=1000)):
            s = decimal.Decimal(sigma_max)
            rate = float(s - (s * s - 4).sqrt())
        assert alpha_star(1.0, sigma_max) == pytest.approx(rate, rel=1e-15, abs=0.0)


class TestGammaBounds:
    def test_gamma_max_at_theta_star_is_alpha_star(self):
        _, gmax = gamma_bounds(theta_star(1.0, 4.0), 1.0, 4.0)
        assert gmax == pytest.approx(alpha_star(1.0, 4.0))

    def test_ordering_when_theta_below_sigma_min(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            theta = rng.uniform(0.05, 1.95)
            smin = theta + rng.uniform(0.0, 2.0)
            smax = smin + rng.uniform(0.01, 5.0)
            gmin, gmax = gamma_bounds(theta, smin, smax)
            assert gmax <= gmin + 1e-12

    def test_derivative_vanishes_at_the_optimum(self):
        # d(gamma_max)/d(theta) = (8 - 2 sigma_max theta)/(4 - theta^2)^{3/2}
        h = 1e-6
        up = gamma_bounds(1.0 + h, 1.0, 4.0)[1]
        down = gamma_bounds(1.0 - h, 1.0, 4.0)[1]
        assert abs((up - down) / (2 * h)) < 1e-6

    def test_gamma_max_maximised_at_theta_star(self):
        smin, smax = 1.0, 4.0
        ts = theta_star(smin, smax)
        thetas = np.linspace(1e-4, ts, 10_000)
        gmax = [gamma_bounds(t, smin, smax)[1] for t in thetas]
        assert np.argmax(gmax) == len(thetas) - 1

    def test_theta_range(self):
        with pytest.raises(ValidationError):
            gamma_bounds(2.0, 1.0, 4.0)


class TestConditions2V:
    def test_optimal_pair_admissible(self):
        prof = RelaxationProfile.two_piece(1.0, 4.0)
        check = check_conditions_2v(theta_star(1.0, 4.0), alpha_star(1.0, 4.0), prof)
        assert check
        assert not check.failures

    def test_alpha_equal_theta_fails(self):
        check = check_conditions_2v(1.0, 1.0, RelaxationProfile.constant(1.0))
        assert not check
        assert "alpha_lt_theta" in check.failures

    def test_inflated_alpha_fails_quadratic(self):
        prof = RelaxationProfile.two_piece(1.0, 4.0)
        alpha = 0.99 * alpha_star(1.0, 4.0) * 1.2
        check = check_conditions_2v(1.0, alpha, prof)
        assert not check
        assert "quadratic_nonpositive" in check.failures

    @pytest.mark.parametrize("sigma_max", [1e200, 1e300, 1.7e308])
    def test_optimal_pair_keeps_finite_margins_at_huge_sigma_max(self, sigma_max):
        # theta^2 (sigma - alpha)^2 is 0 * inf at 1e200, and 2 sigma overflows at 1.7e308
        prof = RelaxationProfile.two_piece(1.0, sigma_max)
        with np.errstate(over="raise", invalid="raise"):  # the square of 4e-200 may underflow
            check = check_conditions_2v(theta_star(1.0, sigma_max), alpha_star(1.0, sigma_max), prof)
        assert check and all(math.isfinite(m) for m in check.margins.values())

    @pytest.mark.parametrize("strict", [set(), {"m"}])
    def test_nan_margin_fails(self, strict):
        check = _verdict({"m": math.nan}, strict)
        assert not check and check.failures == ("m",)

    def test_sampled_profile(self):
        from gtlab.torus import GridFunction, nodes

        sig = RelaxationProfile.from_grid(
            GridFunction(2.0 + 0.5 * np.sin(nodes(64)))
        )
        rep = rate_2v(sig)
        assert check_conditions_2v(rep.theta, rep.rate, sig)


class TestRate3V:
    def test_unit_sigma(self):
        r = rate_3v(1.0, 1.0)
        assert r.rate == pytest.approx(0.3)
        assert r.theta == pytest.approx(math.sqrt(6.0) * 0.3)

    def test_one_four(self):
        assert rate_3v(1.0, 4.0).rate == pytest.approx(3.0 / 145.0)

    @pytest.mark.parametrize("sigma", [1e8, 1e300])
    def test_large_sigma_keeps_a_positive_rate_and_its_conditions(self, sigma):
        # 3 sigma/(9 sigma^2 + 1), without squaring sigma, which overflows past 1.3e154
        r = rate_3v(sigma, sigma)
        assert r.rate == pytest.approx(1.0 / (3.0 * sigma), rel=1e-15)
        check = check_conditions_3v(r.theta, r.rate, RelaxationProfile.constant(sigma))
        assert check and all(math.isfinite(m) for m in check.margins.values())

    @pytest.mark.parametrize("sigma", [1e-310, 1e-320, 1.7e308])
    def test_rate_at_the_ends_of_the_float_range(self, sigma):
        # 1/(9 sigma) overflows below 1e-309, and 9 sigma above 2e307
        with decimal.localcontext(decimal.Context(prec=1000)):
            s = decimal.Decimal(sigma)
            exact = float(min(s / 2, 3 * s / (9 * s * s + 1)))
        assert rate_3v(sigma, sigma).rate == exact

    def test_underflow_is_named(self):
        # 3 sigma_min/(9 sigma_max^2 + 1) is about 3e-401
        with pytest.raises(NumericalError, match="three-velocity rate .* underflows to 0"):
            rate_3v(1.0, 1e200)

    def test_returned_pair_passes_conditions(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            smin = rng.uniform(0.05, 6.0)
            smax = smin + rng.uniform(0.0, 6.0)
            r = rate_3v(smin, smax)
            prof = (
                RelaxationProfile.constant(smin)
                if smax == smin
                else RelaxationProfile.two_piece(smin, smax)
            )
            assert check_conditions_3v(r.theta, r.rate, prof)


class TestConditions3V:
    def test_alpha_above_budget_fails(self):
        check = check_conditions_3v(0.3, 0.5, RelaxationProfile.constant(1.0))
        assert not check
        assert "alpha_le_sqrt23_theta" in check.failures

    def test_alpha_between_corollary_and_theorem_limit(self):
        # (theta, alpha) = (sqrt(6)*0.3, 0.45) at sigma = 1: the simple
        # corollary rate is 0.3, but the full conditions still hold (frozen
        # hand evaluation: sup terms 16335/380000 + 540/18600 = 0.07202
        # against sqrt(2/3)*theta - alpha = 0.15).
        theta = math.sqrt(6.0) * 0.3
        check = check_conditions_3v(theta, 0.45, RelaxationProfile.constant(1.0))
        sup_total = 16335.0 / 380000.0 + 540.0 / 18600.0
        assert check.margins["supremum_bound"] == pytest.approx(0.15 - sup_total)
        assert bool(check) is (sup_total <= 0.15)
        assert check

    def test_condition_two_binding_for_large_alpha(self):
        theta = math.sqrt(6.0) * 0.3
        check = check_conditions_3v(theta, 0.59, RelaxationProfile.constant(1.0))
        assert not check
        assert "supremum_bound" in check.failures
