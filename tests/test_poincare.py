"""Weighted Poincare constants and the rate-improvement iteration."""

import math

import numpy as np
import pytest
import scipy.linalg

import gtlab.poincare as poincare
from gtlab.errors import NumericalError, ValidationError
from gtlab.poincare import (
    TwoPieceWeight,
    improved_alpha,
    matching_matrix,
    weight_from_sigma,
    weighted_poincare,
)
from gtlab.profiles import RelaxationProfile
from gtlab.rates import alpha_star, theta_star

ALPHA0 = 2.0 * (2.0 - math.sqrt(3.0))  # starting rate for the {1, 4} profile
PROFILE_14 = RelaxationProfile.two_piece(1.0, 4.0)

# Smallest constrained eigenvalue for the ALPHA0 weight, frozen from an
# independent finite-difference discretisation of the variational problem
# (N = 4096 periodic grid, generalized eigensolve on the mean-zero subspace).
C_MIN_ALPHA0 = 0.796969
C_SQ_ALPHA0 = 1.254753


def det(lam, weight):
    return np.linalg.det(matching_matrix(lam, weight))


class TestDeterminant:
    def test_uniform_weight_root_at_one(self):
        # equal weights reduce to the classical problem with eigenvalue 1
        assert abs(det(1.0, TwoPieceWeight(1.0, 1.0))) < 1e-12

    def test_uniform_weight_nonzero_between_roots(self):
        assert abs(det(0.5, TwoPieceWeight(1.0, 1.0))) > 1.0

    def test_sign_change_brackets_a_root(self):
        w = weight_from_sigma(PROFILE_14, 1.0, ALPHA0)
        lo, hi = 0.7, 0.8  # brackets the first eigenvalue ~ 0.797
        assert det(lo, w) * det(hi, w) < 0.0

    def test_matrix_shape_and_tau_column(self):
        m = matching_matrix(0.8, TwoPieceWeight(0.5, 2.0))
        assert m.shape == (5, 5)
        assert m[2, 4] == 0.0 and m[3, 4] == 0.0
        assert m[0, 4] == m[1, 4]

    def test_equal_weights_kill_tau_coupling(self):
        m = matching_matrix(0.8, TwoPieceWeight(1.5, 1.5))
        assert m[0, 4] == 0.0 and m[1, 4] == 0.0


def stacked_matching_matrix(lam, weight):
    """The matching matrix as it was assembled before it was filled in place:
    25 entry arrays stacked into rows, then the rows into the matrix."""
    lam = np.asarray(lam, dtype=float)
    w1, w2 = weight.w1, weight.w2
    r1 = math.pi * np.sqrt(lam * w1)
    r2 = math.pi * np.sqrt(lam * w2)
    tau_col = (w2 - w1) / (lam * w1 * w2)
    zeros = np.zeros_like(lam)
    rows = [
        [zeros + 0.0, zeros + 1.0, -np.sin(2 * r2), -np.cos(2 * r2), tau_col],
        [np.sin(r1), np.cos(r1), -np.sin(r2), -np.cos(r2), tau_col],
        [
            zeros + math.sqrt(w1),
            zeros,
            -math.sqrt(w2) * np.cos(2 * r2),
            math.sqrt(w2) * np.sin(2 * r2),
            zeros,
        ],
        [
            math.sqrt(w1) * np.cos(r1),
            -math.sqrt(w1) * np.sin(r1),
            -math.sqrt(w2) * np.cos(r2),
            math.sqrt(w2) * np.sin(r2),
            zeros,
        ],
        [
            (1.0 - np.cos(r1)) / math.sqrt(w1),
            np.sin(r1) / math.sqrt(w1),
            (np.cos(r2) - np.cos(2 * r2)) / math.sqrt(w2),
            (np.sin(2 * r2) - np.sin(r2)) / math.sqrt(w2),
            math.pi * (w2 + w1) / (np.sqrt(lam) * w1 * w2),
        ],
    ]
    return np.stack([np.stack(r, axis=-1) for r in rows], axis=-2)


def _oracle_weights():
    rng = np.random.default_rng(18)
    pairs = [tuple(np.exp(rng.uniform(math.log(0.05), math.log(20.0), 2))) for _ in range(12)]
    pairs += [(1.0, 1.0), (3.7, 3.7)]  # equal weights
    # the weight of the (0.05, 1) profile at alpha*: its first piece is tiny
    sigma = RelaxationProfile.two_piece(0.05, 1.0)
    extremes = sigma.sigma_min, sigma.sigma_max
    pairs.append(weight_from_sigma(sigma, theta_star(*extremes), alpha_star(*extremes)))
    return [p if isinstance(p, TwoPieceWeight) else TwoPieceWeight(*p) for p in pairs]


class TestMatchingMatrixOracle:
    """The in-place matrix is bit for bit the stacked one, so every det, root and rate is too."""

    @pytest.mark.parametrize("weight", _oracle_weights(), ids=lambda w: f"{w.w1:.4g}-{w.w2:.4g}")
    def test_equal_to_the_stacked_assembly(self, weight):
        rng = np.random.default_rng(int(1e6 * weight.w1) % 2**32)
        for lam in (
            0.8,
            1e-3,
            np.exp(rng.uniform(math.log(1e-3), math.log(50.0), 300)),
            1e-3 * np.arange(1, 201),  # the scan lattice's first points
            np.exp(rng.uniform(math.log(1e-3), math.log(50.0), (7, 11))),
        ):
            m, reference = matching_matrix(lam, weight), stacked_matching_matrix(lam, weight)
            assert m.shape == reference.shape == np.shape(lam) + (5, 5)
            assert m.dtype == reference.dtype and m.flags.c_contiguous
            assert np.array_equal(m, reference)
            assert np.array_equal(np.linalg.det(m), np.linalg.det(reference))
            # the structural zeros (0, 0), (2, 1), (2, 4) and (3, 4)
            assert not m[..., [0, 2, 2, 3], [0, 1, 4, 4]].any()


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
        scaled = weighted_poincare(TwoPieceWeight(2.0 * w.w1, 2.0 * w.w2))
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

    @pytest.mark.parametrize("c", [0.2, 0.5, 1.0, 2.0])
    def test_double_root_located_as_a_simple_zero(self, c):
        # equal weights: c_min = 1/c is a touch of det, flat to rounding around it
        assert weighted_poincare(TwoPieceWeight(c, c)).c_min * c == pytest.approx(1.0, rel=1e-10)

    @pytest.mark.parametrize("w1, w2", [(0.5, 2.0), (1.0, 1.0), (3.14, 3.2), (0.46, 2.1)])
    def test_window_of_the_lattice_gives_the_full_scan_c_min(self, w1, w2):
        weight = TwoPieceWeight(w1, w2)
        full = weighted_poincare(weight)
        pad = 0.064  # 64 scan steps
        window = weighted_poincare(weight, 2.0 / (w1 + w2) + pad, lam_min=full.c_min - pad)
        assert window.c_min == full.c_min
        assert window.close_root_flag == full.close_root_flag

    @pytest.mark.parametrize(
        "w1, w2",
        [(0.3, 0.30009), (0.25, 0.250025), (0.4, 0.40012), (0.340016178836712, 0.34004447898160256)],
    )
    def test_near_double_pair_gives_two_certified_roots(self, w1, w2):
        # pairs 1.4e-8, 1.9e-9, 1.1e-8 and 9.6e-10 apart, below what the finite-difference
        # oracle resolves: each root must carry a sign change of det of its own
        weight = TwoPieceWeight(w1, w2)
        res = weighted_poincare(weight)
        low, high = res.roots[:2]
        assert high <= 2.0 / (w1 + w2)  # the two smallest eigenvalues lie at or below it
        offset = min(3e-9, (high - low) / 4.0)
        for r in (low, high):
            assert det(r - offset, weight) * det(r + offset, weight) < 0.0
        assert res.close_root_flag

    def test_no_root_reports_numerical_error(self):
        with pytest.raises(NumericalError, match="increase lam_max"):
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

    @pytest.mark.parametrize("w1, w2", [(math.nan, 1.0), (1.0, math.inf), (-math.inf, 1.0), (0.0, 1.0)])
    def test_weight_must_be_positive_and_finite(self, w1, w2):
        with pytest.raises(ValidationError, match="positive and finite"):
            TwoPieceWeight(w1, w2)


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


# the rate-certify profiles, and nearly equal pieces whose c_min lies just below
# 2/(w1 + w2); with the appendix-a theta and starting rate
WARM_START_PROFILES = [(1.0, 4.0), (1.34, 5.46), (2.93, 0.402), (3.0, 3.1)]


def _appendix_a_iteration(pair):
    lo, hi = min(pair), max(pair)
    profile = RelaxationProfile.two_piece(*pair)
    return improved_alpha(profile, theta_star(lo, hi), alpha_star(lo, hi))


class TestWarmStart:
    """Every scan after the first covers [previous c_min, 2/(w1 + w2)] only."""

    @pytest.mark.parametrize("pair", WARM_START_PROFILES, ids=str)
    def test_iterates_equal_the_cold_loop_and_c_min_never_falls(self, pair, monkeypatch):
        warm = _appendix_a_iteration(pair)
        real = poincare.weighted_poincare
        c_min = []

        def full_scan(weight, *args, **kwargs):
            res = real(weight)
            c_min.append(res.c_min)
            return res

        monkeypatch.setattr(poincare, "weighted_poincare", full_scan)
        cold = _appendix_a_iteration(pair)
        assert warm.iterates == cold.iterates
        assert warm.alpha_max == cold.alpha_max
        assert all(b >= a for a, b in zip(c_min, c_min[1:]))

    @pytest.mark.parametrize("pair", WARM_START_PROFILES, ids=str)
    def test_later_scans_evaluate_fewer_points_than_the_first(self, pair, monkeypatch):
        points = []  # lambda values given to matching_matrix, per scan
        real_scan, real_matrix = poincare.weighted_poincare, poincare.matching_matrix

        def scan(*args, **kwargs):
            points.append(0)
            return real_scan(*args, **kwargs)

        def matrix(lam, weight):
            points[-1] += np.size(lam)
            return real_matrix(lam, weight)

        monkeypatch.setattr(poincare, "weighted_poincare", scan)
        monkeypatch.setattr(poincare, "matching_matrix", matrix)
        res = _appendix_a_iteration(pair)
        assert len(points) == len(res.iterates)
        assert sum(points[1:]) < points[0]

    def test_candidate_below_the_previous_alpha_is_scanned_in_full(self, monkeypatch):
        fixed = improved_alpha(PROFILE_14, 1.0, ALPHA0).alpha_max
        weight = weight_from_sigma(PROFILE_14, 1.0, fixed)
        alpha0 = 1.0 - weighted_poincare(weight).c_omega_sq / 4.0 + 5e-6  # inside the slack
        kwargs = []
        real = poincare.weighted_poincare
        monkeypatch.setattr(
            poincare, "weighted_poincare", lambda *a, **k: kwargs.append(k) or real(*a, **k)
        )
        res = improved_alpha(PROFILE_14, 1.0, alpha0)
        assert res.iterates[1] < alpha0
        assert kwargs[:2] == [{}, {}]  # alpha0, then the candidate below it: full scans
