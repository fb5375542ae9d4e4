"""Weighted Poincare constants and the rate-improvement iteration."""

import decimal
import math

import numpy as np
import pytest
import scipy.linalg

import gtlab.poincare as poincare
from gtlab.errors import ValidationError
from gtlab.poincare import (
    TwoPieceWeight,
    improved_alpha,
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


def matching_matrix(lam, weight):
    """The 5x5 matrix of periodic C^1 matching + zero-mean constraints, (..., 5, 5) for an array lam.

    Columns weight the coefficients (c1, c2, c3, c4, tau) of the piecewise
    solution c1 sin(sqrt(lam w1) x) + c2 cos(...) + tau/(lam w1) (and the w2
    analogue); rows are value/derivative matching at 0 and pi and the
    zero-average constraint. It is singular exactly at the constrained
    eigenvalues, so the sign changes of its determinant are an oracle for the
    count: each entry is its literal formula, with no simplification.
    """
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


def det(lam, weight):
    return np.linalg.det(matching_matrix(lam, weight))


def count(lam, weight):
    return poincare._count(lam, ((math.pi, weight.w1), (math.pi, weight.w2)))


def second_root(weight, c_min):
    """The second constrained eigenvalue, by bisection on N_c >= 2 up to 2/(w1 + w2)."""
    lo, hi = c_min, 2.0 / (weight.w1 + weight.w2)
    while hi - lo > 1e-12 * hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if count(mid, weight) >= 2 else (mid, hi)
    return 0.5 * (lo + hi)


def det_c_min(weight):
    """c_min from the determinant alone: its first sign change on a grid over the Rayleigh
    window [1/max w, 2/(w1 + w2)], widened by 0.1 % each way, bisected."""
    grid = np.linspace(0.999 / weight.sup, 1.001 * 2.0 / (weight.w1 + weight.w2), 20001)
    d = det(grid, weight)
    i = np.flatnonzero(np.sign(d[:-1]) * np.sign(d[1:]) < 0)[0]
    lo, hi = grid[i], grid[i + 1]
    while hi - lo > 1e-13 * hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if np.sign(det(mid, weight)) != np.sign(d[i]) else (mid, hi)
    return 0.5 * (lo + hi)


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


class TestCountOracle:
    """N_c against the sign changes of det, and at the points where the split N_D + n_-(S) fails."""

    def test_count_equals_the_sign_changes_of_det(self):
        # seeded log-uniform weights over (0, 4/min w]; a cell where the count rises by two
        # with no sign change holds a close pair, and is split until det shows both roots
        rng = np.random.default_rng(28)
        for w1, w2 in np.exp(rng.uniform(math.log(0.05), math.log(20.0), (16, 2))).tolist():
            weight = TwoPieceWeight(w1, w2)
            grid = np.linspace(0.0, 4.0 / min(w1, w2), 2001)[1:]
            d = np.sign(det(grid, weight))
            n = np.array([count(lam, weight) for lam in grid])
            assert n[0] == 0
            rises = np.flatnonzero(np.diff(n))
            assert set(np.flatnonzero(d[:-1] * d[1:] < 0)) <= set(rises), weight
            for i in rises:
                fine = np.sign(det(np.linspace(grid[i], grid[i + 1], 1001), weight))
                assert np.count_nonzero(fine[:-1] * fine[1:] < 0) == n[i + 1] - n[i], (weight, grid[i])

    # at w = 1e-300, c_min + 1e-3 rounds to c_min = 1e300, where the count is 0
    @pytest.mark.parametrize("w, flag", [(0.2, 1), (1.0, 1), (3.7, 1), (1000.0, 1), (1e300, 1), (1e-300, 0)])
    def test_equal_weights_on_the_dirichlet_spectrum(self, w, flag, monkeypatch):
        # c_min = 1/w is a double eigenvalue and a Dirichlet one, where y_s(2 pi) = 0: the
        # window is that one point, returned uncounted. The count there and 1e-14 either side
        # stays exact, since each entry of y_s(2 pi) S is good to a rounding of its own size.
        weight = TwoPieceWeight(w, w)
        assert [count(f / w, weight) for f in (1.0 - 1e-14, 1.0, 1.0 + 1e-14)] == [0, 0, 2]
        points = []
        real = poincare._count
        monkeypatch.setattr(poincare, "_count", lambda lam, pieces: points.append(lam) or real(lam, pieces))
        res = weighted_poincare(weight)
        assert res.c_min == 1.0 / w
        assert points == [res.c_min + 1e-3]  # the close-root check alone
        assert res.close_root_flag == flag  # the double eigenvalue counts twice


def _appendix_a_weight(pair):
    lo, hi = min(pair), max(pair)
    w = weight_from_sigma(RelaxationProfile.two_piece(*pair), theta_star(lo, hi), alpha_star(lo, hi))
    return w.w1, w.w2


#: the weights of the rate-certify profiles at alpha*, a nearly double pair, equal weights
NAMED_WEIGHTS = [_appendix_a_weight(pair) for pair in ((1.0, 4.0), (2.93, 0.402), (1.34, 5.46))] + [
    (0.3, 0.30009),
    (0.2, 0.2),
    (3.7, 3.7),
]


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

    @pytest.mark.parametrize("c", [0.2, 0.5, 1.0, 2.0])
    def test_double_root_located_as_a_simple_zero(self, c):
        # equal weights: c_min = 1/c is a touch of det, with no sign change to find
        assert weighted_poincare(TwoPieceWeight(c, c)).c_min * c == pytest.approx(1.0, rel=1e-10)

    @pytest.mark.parametrize("w1, w2", [(0.5, 2.0), (1.0, 1.0), (3.14, 3.2), (0.46, 2.1)] + NAMED_WEIGHTS)
    def test_c_min_is_the_first_eigenvalue_in_the_rayleigh_window(self, w1, w2):
        weight = TwoPieceWeight(w1, w2)
        res = weighted_poincare(weight)
        assert 1.0 / weight.sup <= res.c_min <= 2.0 / (w1 + w2)
        # to the bisection's 1e-12, relative: no eigenvalue below, at least one above
        assert count(res.c_min * (1.0 - 2e-12), weight) == 0
        assert count(res.c_min * (1.0 + 2e-12), weight) >= (2 if w1 == w2 else 1)

    @pytest.mark.parametrize("w1, w2", [(0.5, 2.0), (1.0, 1.0), (3.14, 3.2), (0.46, 2.1)] + NAMED_WEIGHTS)
    def test_window_of_the_lattice_gives_the_full_scan_c_min(self, w1, w2):
        # the whole 1e-3 lattice over (0, 4/min w], with no Rayleigh window: N_c is 0 and det
        # keeps its sign up to the first cell where N_c rises, which bisects to the same c_min
        weight = TwoPieceWeight(w1, w2)
        res = weighted_poincare(weight)
        lattice = 1e-3 * np.arange(1, math.ceil(4.0 / min(w1, w2) / 1e-3) + 1)
        counts = np.array([count(lam, weight) for lam in lattice])
        i = np.flatnonzero(counts)[0]
        assert np.all(counts[:i] == 0)
        signs = np.sign(det(lattice[:i], weight))
        assert np.all(signs == signs[0]) and signs[0] != 0.0
        lo, hi = lattice[i - 1], lattice[i]
        while hi - lo > 1e-13 * hi:
            mid = 0.5 * (lo + hi)
            lo, hi = (lo, mid) if count(mid, weight) >= 1 else (mid, hi)
        assert res.c_min == pytest.approx(0.5 * (lo + hi), rel=1e-12, abs=0.0)
        assert 1.0 / weight.sup <= res.c_min <= 2.0 / (w1 + w2)

    @pytest.mark.parametrize(
        "w1, w2",
        [(0.3, 0.30009), (0.25, 0.250025), (0.4, 0.40012), (0.340016178836712, 0.34004447898160256)],
    )
    def test_near_double_pair_gives_two_certified_roots(self, w1, w2):
        # pairs 1.4e-8, 1.9e-9, 1.1e-8 and 9.6e-10 apart, below what the finite-difference
        # oracle resolves: each root must carry a sign change of det of its own
        weight = TwoPieceWeight(w1, w2)
        res = weighted_poincare(weight)
        low, high = res.c_min, second_root(weight, res.c_min)
        assert high <= 2.0 / (w1 + w2)  # the two smallest eigenvalues lie at or below it
        offset = min(3e-9, (high - low) / 4.0)
        for r in (low, high):
            assert det(r - offset, weight) * det(r + offset, weight) < 0.0
        assert res.close_root_flag


#: pairs across the float range, a nearly double pair and an equal one
RANGE_WEIGHTS = [
    (1e-320, 1.0),
    (1e-300, 1.0),
    (1e-8, 1.0),
    (0.3, 2.1),
    (0.3, 0.30009),
    (1.0, 1e300),
    (1e-300, 1e300),
    (5.0, 5.0),
]


@pytest.mark.parametrize("w1, w2", RANGE_WEIGHTS, ids=str)
def test_swapping_the_pieces_keeps_c_min(w1, w2):
    # x -> x + pi maps the torus onto itself and swaps the pieces
    a, b = weighted_poincare(TwoPieceWeight(w1, w2)), weighted_poincare(TwoPieceWeight(w2, w1))
    assert a.c_min == pytest.approx(b.c_min, rel=2e-12)


@pytest.mark.parametrize(
    "w1, w2, scale",
    [
        (1e-320, 1.0, 2.0),
        (1e-320, 1.0, 1e8),
        (1e-300, 1.0, 1e-8),
        (1e-300, 1.0, 1e8),
        (1e-8, 1.0, 1e-8),
        (0.3, 2.1, 1e-300),
        (0.3, 2.1, 2.0),
        (0.3, 2.1, 1e300),
        (1.0, 1e300, 1e-8),
        (1e-300, 1e300, 1e8),
        (5.0, 5.0, 1e-8),
        (5.0, 5.0, 1e8),
        # c_min = 1/3000 and 1e-3 at equal weights, c_min(0.7, 1.3)/1000, and c_min(1, 2) * 1e4
        (1.0, 1.0, 3000.0),
        (1.0, 1.0, 1000.0),
        (0.7, 1.3, 1000.0),
        (1.0, 2.0, 1e-4),
    ],
    ids=str,
)
def test_scaling_both_pieces_divides_c_min(w1, w2, scale):
    # only lambda w enters the problem
    base = weighted_poincare(TwoPieceWeight(w1, w2)).c_min
    scaled = weighted_poincare(TwoPieceWeight(w1 * scale, w2 * scale)).c_min
    assert scaled == pytest.approx(base / scale, rel=4e-12)


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

    def test_nearly_equal_weights_give_both_eigenvalues_of_the_split_pair(self):
        # two simple eigenvalues 5e-6 apart
        weight = TwoPieceWeight(3.14, 3.2)
        res = weighted_poincare(weight)
        assert [res.c_min, second_root(weight, res.c_min)] == pytest.approx(self.oracle(weight), rel=1e-8)
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

    @pytest.mark.parametrize("sigma_max", [4.0, 1e8, 1e200, 1.7e308])
    def test_weight_at_any_size(self, sigma_max):
        # (s - alpha)^2 / (2 s - theta - alpha) in 1000 digits; in floats the square
        # overflows past 1.3e154 and 2 s past 9e307
        theta, alpha = theta_star(1.0, sigma_max), alpha_star(1.0, sigma_max)
        w = weight_from_sigma(RelaxationProfile.two_piece(1.0, sigma_max), theta, alpha)
        with decimal.localcontext(decimal.Context(prec=1000)):
            t, a = decimal.Decimal(theta), decimal.Decimal(alpha)
            exact = [float((s - a) ** 2 / (2 * s - t - a)) for s in map(decimal.Decimal, (1.0, sigma_max))]
        assert [w.w1, w.w2] == pytest.approx(exact, rel=4e-16, abs=0.0)

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

    # the rate-certify profiles, and nearly equal pieces whose c_min lies just below 2/(w1 + w2)
    @pytest.mark.parametrize("pair", [(1.0, 4.0), (1.34, 5.46), (2.93, 0.402), (3.0, 3.1)], ids=str)
    def test_iterates_equal_the_cold_loop_and_c_min_never_falls(self, pair, monkeypatch):
        # the same loop with each constant from the determinant alone
        lo, hi = min(pair), max(pair)
        profile = RelaxationProfile.two_piece(*pair)

        def iteration():
            return improved_alpha(profile, theta_star(lo, hi), alpha_star(lo, hi))

        counted = iteration()
        c_min = []

        def from_det(weight):
            c_min.append(det_c_min(weight))
            return poincare.PoincareResult(c_min=c_min[-1], c_omega_sq=1.0 / c_min[-1])

        monkeypatch.setattr(poincare, "weighted_poincare", from_det)
        cold = iteration()
        assert counted.iterates == pytest.approx(cold.iterates, rel=1e-12, abs=0.0)
        assert all(b >= a for a, b in zip(c_min, c_min[1:]))
