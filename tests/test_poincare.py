"""Weighted Poincare constants and the rate-improvement iteration."""

import math

import numpy as np
import pytest
import scipy.linalg

from gtlab.errors import NumericalError, ValidationError
from gtlab.poincare import (
    TwoPieceWeight,
    det_M_lambda,
    improved_alpha,
    matching_matrix,
    weight_from_sigma,
    weighted_poincare,
)
from gtlab.profiles import RelaxationProfile
from gtlab.rates import alpha_star

ALPHA0 = 2.0 * (2.0 - math.sqrt(3.0))  # starting rate for the {1, 4} profile
PROFILE_14 = RelaxationProfile.two_piece(1.0, 4.0)

# Smallest constrained eigenvalue for the ALPHA0 weight, frozen from an
# independent finite-difference discretisation of the variational problem
# (N = 4096 periodic grid, generalized eigensolve on the mean-zero subspace).
C_MIN_ALPHA0 = 0.796969
C_SQ_ALPHA0 = 1.254753


class TestDeterminant:
    def test_uniform_weight_root_at_one(self):
        # equal weights reduce to the classical problem with eigenvalue 1
        assert abs(det_M_lambda(1.0, TwoPieceWeight(1.0, 1.0))) < 1e-12

    def test_uniform_weight_nonzero_between_roots(self):
        assert abs(det_M_lambda(0.5, TwoPieceWeight(1.0, 1.0))) > 1.0

    def test_sign_change_brackets_a_root(self):
        w = weight_from_sigma(PROFILE_14, 1.0, ALPHA0)
        lo, hi = 0.7, 0.8  # brackets the first eigenvalue ~ 0.797
        assert det_M_lambda(lo, w) * det_M_lambda(hi, w) < 0.0

    def test_matrix_shape_and_tau_column(self):
        m = matching_matrix(0.8, TwoPieceWeight(0.5, 2.0))
        assert m.shape == (5, 5)
        assert m[2, 4] == 0.0 and m[3, 4] == 0.0
        assert m[0, 4] == m[1, 4]

    def test_equal_weights_kill_tau_coupling(self):
        m = matching_matrix(0.8, TwoPieceWeight(1.5, 1.5))
        assert m[0, 4] == 0.0 and m[1, 4] == 0.0


class TestWeightedPoincare:
    def test_uniform_weight_recovers_classical_constant(self):
        res = weighted_poincare(TwoPieceWeight(1.0, 1.0))
        assert res.c_min == pytest.approx(1.0, abs=1e-6)
        assert res.c_omega_sq == pytest.approx(1.0, abs=1e-6)

    def test_alpha0_weight(self):
        res = weighted_poincare(weight_from_sigma(PROFILE_14, 1.0, ALPHA0))
        assert res.c_min == pytest.approx(C_MIN_ALPHA0, abs=1e-5)
        assert res.c_omega_sq == pytest.approx(C_SQ_ALPHA0, abs=1e-4)

    def test_scaling_law(self):
        # lambda * w invariance: scaling the weight by c divides c_min by c
        w = weight_from_sigma(PROFILE_14, 1.0, ALPHA0)
        base = weighted_poincare(w)
        scaled = weighted_poincare(w.scaled(2.0))
        assert scaled.c_min == pytest.approx(base.c_min / 2.0, rel=1e-7)

    def test_uniform_consistency_across_scales(self):
        for c in (0.5, 1.0, 2.0):
            res = weighted_poincare(TwoPieceWeight(c, c))
            assert res.c_min * c == pytest.approx(1.0, abs=1e-5)

    def test_footnote_bound(self):
        for w in (
            TwoPieceWeight(1.0, 1.0),
            weight_from_sigma(PROFILE_14, 1.0, ALPHA0),
            TwoPieceWeight(0.5, 2.0),
            TwoPieceWeight(3.0, 0.2),
            TwoPieceWeight(0.1, 20.0),
        ):
            res = weighted_poincare(w)
            assert res.c_omega_sq <= w.sup + 1e-6

    def test_roots_increasing_and_first_taken(self):
        res = weighted_poincare(TwoPieceWeight(0.5, 2.0))
        assert list(res.roots) == sorted(res.roots)
        assert res.c_min == res.roots[0]

    def test_no_root_reports_numerical_error(self):
        with pytest.raises(NumericalError):
            weighted_poincare(TwoPieceWeight(1.0, 1.0), lam_max=0.5)


def finite_difference_eigenvalues(weight: TwoPieceWeight, n: int) -> np.ndarray:
    """The two smallest eigenvalues of K u = lambda W u on mean-zero grid functions.

    K = (2I - S - S^T)/h^2 on the periodic n-point grid (S the cyclic shift),
    W = diag(w(x_j)) with (w1 + w2)/2 at the jump nodes x = 0 and x = pi.
    The columns of q span the mean-zero subspace.
    """
    h = 2.0 * math.pi / n
    w = np.where(np.arange(n) < n // 2, weight.w1, weight.w2)
    w[0] = w[n // 2] = (weight.w1 + weight.w2) / 2.0
    shift = np.roll(np.eye(n), 1, axis=1)
    k = (2.0 * np.eye(n) - shift - shift.T) / h**2
    q = np.vstack([np.eye(n - 1), -np.ones((1, n - 1))])
    return scipy.linalg.eigh(
        q.T @ k @ q, q.T @ (w[:, None] * q), eigvals_only=True, subset_by_index=[0, 1]
    )


LOG_UNIFORM_WEIGHTS = np.exp(
    np.random.default_rng(0).uniform(math.log(0.2), math.log(5.0), size=(5, 2))
).tolist()


class TestFiniteDifferenceOracle:
    """c_min against a second-order discretisation, Richardson-extrapolated from
    n = 256 and 512; the two agree to 7e-10 relative on log-uniform weights."""

    @staticmethod
    def oracle(weight):
        coarse = finite_difference_eigenvalues(weight, 256)
        fine = finite_difference_eigenvalues(weight, 512)
        return (4.0 * fine - coarse) / 3.0

    @pytest.mark.parametrize("w1, w2", LOG_UNIFORM_WEIGHTS)
    def test_c_min_matches_the_extrapolated_discretisation(self, w1, w2):
        weight = TwoPieceWeight(w1, w2)
        res = weighted_poincare(weight)
        assert res.c_min == pytest.approx(self.oracle(weight)[0], rel=1e-8)
        assert all(np.diff(res.roots) > 1e-6)  # no simple root reported twice

    def test_nearly_equal_weights_give_both_eigenvalues_of_the_split_pair(self):
        # two simple eigenvalues 6e-6 apart, inside one scan step
        weight = TwoPieceWeight(3.14, 3.2)
        res = weighted_poincare(weight)
        assert res.roots[:2] == pytest.approx(self.oracle(weight), rel=1e-8)
        assert res.close_root_flag


class TestWeightFromSigma:
    def test_first_piece_simplifies(self):
        w = weight_from_sigma(PROFILE_14, 1.0, ALPHA0)
        assert w.w1 == pytest.approx(1.0 - ALPHA0)
        assert w.w2 == pytest.approx((4.0 - ALPHA0) ** 2 / (7.0 - ALPHA0))

    def test_alpha_zero(self):
        w = weight_from_sigma(PROFILE_14, 1.0, 0.0)
        assert w.w1 == pytest.approx(1.0)
        assert w.w2 == pytest.approx(16.0 / 7.0)

    def test_nonpositive_denominator(self):
        with pytest.raises(ValidationError):
            weight_from_sigma(PROFILE_14, 1.5, 0.5)  # 2*1 - 1.5 - 0.5 = 0

    def test_unsupported_profile_shape(self):
        three = RelaxationProfile.piecewise([(1.0, 1.0), (2.0, 2.0), (2 * math.pi, 3.0)])
        with pytest.raises(ValidationError):
            weight_from_sigma(three, 1.0, 0.1)


class TestImprovedAlpha:
    def test_reference_iteration(self):
        res = improved_alpha(PROFILE_14, 1.0, ALPHA0)
        assert res.converged
        assert res.iterations < 100
        assert res.alpha_max == pytest.approx(0.7234, abs=1e-3)

    def test_first_update_uses_the_computed_constant(self):
        res = improved_alpha(PROFILE_14, 1.0, ALPHA0)
        assert res.iterates[0] == pytest.approx(ALPHA0)
        assert res.iterates[1] == pytest.approx(1.0 - C_SQ_ALPHA0 / 4.0, abs=1e-4)

    def test_fixed_point_residual(self):
        tol = 1e-6
        res = improved_alpha(PROFILE_14, 1.0, ALPHA0, tol=tol)
        w = weight_from_sigma(PROFILE_14, 1.0, res.alpha_max)
        c2 = weighted_poincare(w).c_omega_sq
        assert abs(res.alpha_max - (1.0 - c2 / 4.0)) < 2.0 * tol

    def test_improves_on_the_perturbative_rate(self):
        res = improved_alpha(PROFILE_14, 1.0, ALPHA0)
        assert res.alpha_max >= alpha_star(1.0, 4.0)

    def test_monotone_iterates(self):
        res = improved_alpha(PROFILE_14, 1.0, ALPHA0)
        assert all(b >= a for a, b in zip(res.iterates, res.iterates[1:]))

    def test_inadmissible_start_rejected(self):
        with pytest.raises(ValidationError):
            improved_alpha(PROFILE_14, 1.0, 0.9)
