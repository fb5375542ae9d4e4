"""Weighted Poincare constants and the improved rate."""

import decimal
import math

import numpy as np
import pytest
import scipy.linalg

import gtlab.poincare as poincare
from gtlab.errors import ValidationError
from gtlab.poincare import improved_alpha, weight_from_sigma, weighted_poincare
from gtlab.profiles import RelaxationProfile
from gtlab.rates import alpha_star, theta_star
from gtlab.torus import GridFunction, nodes

two_piece = RelaxationProfile.two_piece  # a weight: w1 on (0, pi], w2 on (pi, 2pi]

ALPHA0 = 2.0 * (2.0 - math.sqrt(3.0))  # starting rate for the {1, 4} profile
PROFILE_14 = RelaxationProfile.two_piece(1.0, 4.0)

# Smallest constrained eigenvalue for the ALPHA0 weight, frozen from an
# independent finite-difference discretisation of the variational problem
# (N = 4096 periodic grid, generalized eigensolve on the mean-zero subspace).
C_MIN_ALPHA0 = 0.796969
C_SQ_ALPHA0 = 1.254753

def values(weight):
    return [w for _, w in weight.pieces]


def equal_pieces(*weights):
    """The weights in turn on equal pieces of the torus."""
    return RelaxationProfile.piecewise(
        [((i + 1) * 2.0 * math.pi / len(weights), w) for i, w in enumerate(weights)]
    )


def pieces_id(value):
    """Test ids that spell a tuple of weights as its entries, joined by '-'."""
    return "-".join(map(str, value)) if isinstance(value, tuple) else str(value)


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
    w1, w2 = values(weight)
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
    ends = [end for end, _ in weight.pieces]
    lengths = np.diff([0.0] + ends).tolist()
    return poincare._count(lam, tuple(zip(lengths, values(weight))))


def second_root(weight, c_min):
    """The second constrained eigenvalue, by bisection on N_c >= 2 up to 2/(w1 + w2)."""
    lo, hi = c_min, 2.0 / sum(values(weight))
    while hi - lo > 1e-12 * hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if count(mid, weight) >= 2 else (mid, hi)
    return 0.5 * (lo + hi)


def det_c_min(weight):
    """c_min from the determinant alone: its first sign change on a grid over the Rayleigh
    window [1/max w, 2/(w1 + w2)], widened by 0.1 % each way, bisected."""
    grid = np.linspace(0.999 / max(values(weight)), 1.001 * 2.0 / sum(values(weight)), 20001)
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
        assert abs(det(1.0, two_piece(1.0, 1.0))) < 1e-12

    def test_uniform_weight_nonzero_between_roots(self):
        assert abs(det(0.5, two_piece(1.0, 1.0))) > 1.0

    def test_sign_change_brackets_a_root(self):
        w = weight_from_sigma(PROFILE_14, 1.0, ALPHA0)
        lo, hi = 0.7, 0.8  # brackets the first eigenvalue ~ 0.797
        assert det(lo, w) * det(hi, w) < 0.0

    def test_matrix_shape_and_tau_column(self):
        m = matching_matrix(0.8, two_piece(0.5, 2.0))
        assert m.shape == (5, 5)
        assert m[2, 4] == 0.0 and m[3, 4] == 0.0
        assert m[0, 4] == m[1, 4]

    def test_equal_weights_kill_tau_coupling(self):
        m = matching_matrix(0.8, two_piece(1.5, 1.5))
        assert m[0, 4] == 0.0 and m[1, 4] == 0.0


class TestCountOracle:
    """N_c against the sign changes of det, and at the points where the split N_D + n_-(S) fails."""

    def test_count_equals_the_sign_changes_of_det(self):
        # seeded log-uniform weights over (0, 4/min w]; a cell where the count rises by two
        # with no sign change holds a close pair, and is split until det shows both roots
        rng = np.random.default_rng(28)
        for w1, w2 in np.exp(rng.uniform(math.log(0.05), math.log(20.0), (16, 2))).tolist():
            weight = two_piece(w1, w2)
            grid = np.linspace(0.0, 4.0 / min(w1, w2), 2001)[1:]
            d = np.sign(det(grid, weight))
            n = np.array([count(lam, weight) for lam in grid])
            assert n[0] == 0
            rises = np.flatnonzero(np.diff(n))
            assert set(np.flatnonzero(d[:-1] * d[1:] < 0)) <= set(rises), weight
            for i in rises:
                fine = np.sign(det(np.linspace(grid[i], grid[i + 1], 1001), weight))
                assert np.count_nonzero(fine[:-1] * fine[1:] < 0) == n[i + 1] - n[i], (weight, grid[i])

    # at w = 1e-300, c_min + 1e-3 rounds to c_min = 1e300, where the count is 0: the
    # close-root window is max(1e-3, 8 ulp of c_min), and the double eigenvalue still counts
    @pytest.mark.parametrize("w, flag", [(0.2, 1), (1.0, 1), (3.7, 1), (1000.0, 1), (1e300, 1), (1e-300, 1)])
    def test_equal_weights_on_the_dirichlet_spectrum(self, w, flag, monkeypatch):
        # c_min = 1/w is a double eigenvalue and a Dirichlet one, where y_s(2 pi) = 0: the
        # window is that one point, returned uncounted. The count there and 1e-14 either side
        # stays exact, since each entry of y_s(2 pi) S is good to a rounding of its own size.
        weight = two_piece(w, w)
        assert [count(f / w, weight) for f in (1.0 - 1e-14, 1.0, 1.0 + 1e-14)] == [0, 0, 2]
        points = []
        real = poincare._count
        monkeypatch.setattr(poincare, "_count", lambda lam, pieces: points.append(lam) or real(lam, pieces))
        res = weighted_poincare(weight)
        assert res.c_min == 1.0 / w
        assert points == [res.c_min + max(1e-3, 8 * math.ulp(res.c_min))]  # the close-root check alone
        assert res.close_root_flag == flag  # the double eigenvalue counts twice


def _appendix_a_weight(pair):
    lo, hi = min(pair), max(pair)
    w = weight_from_sigma(RelaxationProfile.two_piece(*pair), theta_star(lo, hi), alpha_star(lo, hi))
    return tuple(values(w))


#: the weights of the rate-certify profiles at alpha*, a nearly double pair, equal weights
NAMED_WEIGHTS = [_appendix_a_weight(pair) for pair in ((1.0, 4.0), (2.93, 0.402), (1.34, 5.46))] + [
    (0.3, 0.30009),
    (0.2, 0.2),
    (3.7, 3.7),
]


class TestWeightedPoincare:
    def test_uniform_weight_recovers_classical_constant(self):
        res = weighted_poincare(two_piece(1.0, 1.0))
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
        scaled = weighted_poincare(two_piece(*(2.0 * v for v in values(w))))
        assert scaled.c_min == pytest.approx(base.c_min / 2.0, rel=1e-7)

    def test_uniform_consistency_across_scales(self):
        for c in (0.5, 1.0, 2.0):
            res = weighted_poincare(two_piece(c, c))
            assert res.c_min * c == pytest.approx(1.0, abs=1e-5)

    def test_footnote_bound(self):
        for w in (
            two_piece(1.0, 1.0),
            weight_from_sigma(PROFILE_14, 1.0, ALPHA0),
            two_piece(0.5, 2.0),
            two_piece(3.0, 0.2),
            two_piece(0.1, 20.0),
        ):
            res = weighted_poincare(w)
            assert res.c_omega_sq <= max(values(w)) + 1e-6

    @pytest.mark.parametrize("c", [0.2, 0.5, 1.0, 2.0])
    def test_double_root_located_as_a_simple_zero(self, c):
        # equal weights: c_min = 1/c is a touch of det, with no sign change to find
        assert weighted_poincare(two_piece(c, c)).c_min * c == pytest.approx(1.0, rel=1e-10)

    @pytest.mark.parametrize("w1, w2", [(0.5, 2.0), (1.0, 1.0), (3.14, 3.2), (0.46, 2.1)] + NAMED_WEIGHTS)
    def test_c_min_is_the_first_eigenvalue_in_the_rayleigh_window(self, w1, w2):
        weight = two_piece(w1, w2)
        res = weighted_poincare(weight)
        assert 1.0 / max(w1, w2) <= res.c_min <= 2.0 / (w1 + w2)
        # to the bisection's 1e-12, relative: no eigenvalue below, at least one above
        assert count(res.c_min * (1.0 - 2e-12), weight) == 0
        assert count(res.c_min * (1.0 + 2e-12), weight) >= (2 if w1 == w2 else 1)

    @pytest.mark.parametrize("w1, w2", [(0.5, 2.0), (1.0, 1.0), (3.14, 3.2), (0.46, 2.1)] + NAMED_WEIGHTS)
    def test_window_of_the_lattice_gives_the_full_scan_c_min(self, w1, w2):
        # the whole 1e-3 lattice over (0, 4/min w], with no Rayleigh window: N_c is 0 and det
        # keeps its sign up to the first cell where N_c rises, which bisects to the same c_min
        weight = two_piece(w1, w2)
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
        assert 1.0 / max(w1, w2) <= res.c_min <= 2.0 / (w1 + w2)

    @pytest.mark.parametrize(
        "w1, w2",
        [(0.3, 0.30009), (0.25, 0.250025), (0.4, 0.40012), (0.340016178836712, 0.34004447898160256)],
    )
    def test_near_double_pair_gives_two_certified_roots(self, w1, w2):
        # pairs 1.4e-8, 1.9e-9, 1.1e-8 and 9.6e-10 apart, below what the finite-difference
        # oracle resolves: each root must carry a sign change of det of its own
        weight = two_piece(w1, w2)
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


#: weights on three and four equal pieces, across the float range
MANY_WEIGHTS = [
    (1.0, 4.0, 0.5),
    (1e-300, 1.0, 3.0),
    (2.0, 0.3, 5.0, 1.0),
    (1e-8, 1.0, 1e8, 0.5),
    (0.3, 0.30009, 0.3, 0.30009),
]


@pytest.mark.parametrize("weights", RANGE_WEIGHTS + MANY_WEIGHTS, ids=pieces_id)
def test_swapping_the_pieces_keeps_c_min(weights):
    # x -> 2 pi - x maps the torus onto itself and reverses equal pieces; for two, so does x -> x + pi
    a, b = weighted_poincare(equal_pieces(*weights)), weighted_poincare(equal_pieces(*weights[::-1]))
    assert a.c_min == pytest.approx(b.c_min, rel=2e-12)


@pytest.mark.parametrize(
    "spec",
    [
        "pc:1@0.5pi,4@1.5pi,0.5@2pi",
        "pc:2@0.25pi,0.3@pi,5@1.5pi,1@2pi",
        "pc:1@1,4@3,0.5@2pi",
        "pc:0.2@0.7,3@2,1@5,7@2pi",
        "pc:1e-8@1,1@2,1e8@4,0.5@2pi",
    ],
)
def test_rotating_the_pieces_keeps_c_min(spec):
    # x -> x + x_k maps the torus onto itself and moves the first k pieces to the end
    profile = RelaxationProfile.parse(spec)
    lengths = np.diff([0.0] + [end for end, _ in profile.pieces])
    base = weighted_poincare(profile).c_min
    for k in range(1, len(lengths)):
        ends = np.cumsum(np.roll(lengths, -k))
        ends[-1] = 2.0 * math.pi
        rotated = RelaxationProfile.piecewise(zip(ends.tolist(), np.roll(values(profile), -k).tolist()))
        assert weighted_poincare(rotated).c_min == pytest.approx(base, rel=2e-12)


@pytest.mark.parametrize(
    "weights, scale",
    [
        ((1e-320, 1.0), 2.0),
        ((1e-320, 1.0), 1e8),
        ((1e-300, 1.0), 1e-8),
        ((1e-300, 1.0), 1e8),
        ((1e-8, 1.0), 1e-8),
        ((0.3, 2.1), 1e-300),
        ((0.3, 2.1), 2.0),
        ((0.3, 2.1), 1e300),
        ((1.0, 1e300), 1e-8),
        ((1e-300, 1e300), 1e8),
        ((5.0, 5.0), 1e-8),
        ((5.0, 5.0), 1e8),
        # c_min = 1/3000 and 1e-3 at equal weights, c_min(0.7, 1.3)/1000, and c_min(1, 2) * 1e4
        ((1.0, 1.0), 3000.0),
        ((1.0, 1.0), 1000.0),
        ((0.7, 1.3), 1000.0),
        ((1.0, 2.0), 1e-4),
    ]
    + [(weights, scale) for weights in MANY_WEIGHTS for scale in (1e-8, 1e8)],
    ids=pieces_id,
)
def test_scaling_both_pieces_divides_c_min(weights, scale):
    # only lambda w enters the problem
    base = weighted_poincare(equal_pieces(*weights)).c_min
    scaled = weighted_poincare(equal_pieces(*(w * scale for w in weights))).c_min
    assert scaled == pytest.approx(base / scale, rel=4e-12)


def finite_difference_eigenvalues(weight, n: int) -> np.ndarray:
    """The two smallest eigenvalues of K u = lambda W u on mean-zero grid functions.

    K = (2I - S - S^T)/h^2 on the periodic n-point grid (S the cyclic shift),
    W = diag(w(x_j)), with the mean of the two sides at each jump node: x = 0
    and every end of a piece, each of which must be a node. The columns of q
    span the mean-zero subspace.
    """
    h = 2.0 * math.pi / n
    ends = np.array([end for end, _ in weight.pieces]) / h
    assert np.allclose(ends, np.round(ends), rtol=0.0, atol=1e-9), "a piece ends off the grid"
    ends = np.round(ends).astype(int)
    v = np.array(values(weight))
    # the piece ending at x_k holds the nodes after its start up to x_k, and node n is node 0
    w = np.roll(np.repeat(v, np.diff(np.concatenate([[0], ends]))), 1)
    w[ends % n] = (v + np.roll(v, -1)) / 2.0
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
        weight = two_piece(w1, w2)
        res = weighted_poincare(weight)
        assert res.c_min == pytest.approx(self.oracle(weight)[0], rel=1e-8)

    @pytest.mark.parametrize(
        "spec, c_min",
        [("pc:1@0.5pi,4@1.5pi,0.5@2pi", 0.3787730774), ("pc:2@0.25pi,0.3@pi,5@1.5pi,1@2pi", 0.3528130817)],
    )
    def test_c_min_of_dyadic_pieces_matches_the_extrapolated_discretisation(self, spec, c_min):
        weight = RelaxationProfile.parse(spec)
        res = weighted_poincare(weight)
        assert res.c_min == pytest.approx(self.oracle(weight)[0], rel=1e-8)
        assert res.c_min == pytest.approx(c_min, rel=1e-9)

    def test_nearly_equal_weights_give_both_eigenvalues_of_the_split_pair(self):
        # two simple eigenvalues 5e-6 apart
        weight = two_piece(3.14, 3.2)
        res = weighted_poincare(weight)
        assert [res.c_min, second_root(weight, res.c_min)] == pytest.approx(self.oracle(weight), rel=1e-8)
        assert res.close_root_flag


class TestWeightFromSigma:
    def test_first_piece_simplifies(self):
        w1, w2 = values(weight_from_sigma(PROFILE_14, 1.0, ALPHA0))
        assert w1 == pytest.approx(1.0 - ALPHA0)
        assert w2 == pytest.approx((4.0 - ALPHA0) ** 2 / (7.0 - ALPHA0))

    def test_alpha_zero(self):
        w = weight_from_sigma(PROFILE_14, 1.0, 0.0)
        assert values(w) == pytest.approx([1.0, 16.0 / 7.0])

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
        assert values(w) == pytest.approx(exact, rel=4e-16, abs=0.0)

    def test_every_piece_is_mapped_in_place(self):
        three = RelaxationProfile.piecewise([(1.0, 1.0), (2.0, 2.0), (2 * math.pi, 3.0)])
        w = weight_from_sigma(three, 1.0, 0.1)
        assert [end for end, _ in w.pieces] == [1.0, 2.0, 2 * math.pi] and w.n is None
        assert values(w) == pytest.approx([(s - 0.1) ** 2 / (2 * s - 1.1) for s in (1.0, 2.0, 3.0)], rel=1e-15)

    def test_node_samples_stay_node_samples(self):
        sigma = RelaxationProfile.from_grid(GridFunction(2.0 + np.sin(nodes(16))))
        w = weight_from_sigma(sigma, 1.0, 0.1)
        assert w.n == 16 and [end for end, _ in w.pieces] == [end for end, _ in sigma.pieces]

    @pytest.mark.parametrize("w1, w2", [(math.nan, 1.0), (1.0, math.inf), (-math.inf, 1.0), (0.0, 1.0)])
    def test_weight_must_be_positive_and_finite(self, w1, w2):
        # a weight is a profile, whose own check refuses it
        with pytest.raises(ValidationError, match="positive and finite"):
            two_piece(w1, w2)

    def test_a_vanishing_weight_is_refused(self):
        # sigma = alpha on the first piece
        with pytest.raises(ValidationError, match="got 0.0 on the piece ending at x = 3.14159"):
            weight_from_sigma(PROFILE_14, 0.5, 1.0)


def fixed_point_loop(sigma, theta, alpha0, tol=1e-6):
    """The iterates of the paper's alpha -> theta - theta^2 C^2_{w_alpha}/4 from alpha0, to |step| < tol.

    Each update takes a whole weighted_poincare bisection. improved_alpha
    bisects admissibility instead, and this loop is its oracle.
    """

    def cap(alpha):
        weight = weight_from_sigma(sigma, theta, alpha)
        return theta - theta**2 * poincare.weighted_poincare(weight).c_omega_sq / 4.0

    iterates = [alpha0]
    for _ in range(100):
        iterates.append(cap(iterates[-1]))
        if abs(iterates[-1] - iterates[-2]) < tol:
            return iterates
    raise AssertionError(f"no fixed point in 100 updates from {alpha0}")


#: two-piece profiles: the rate-certify ones, (1.05, 1.07) whose rates lie close together, and
#: 40 log-uniform pairs in [0.05, 12]
TWO_PIECE_PAIRS = [(1.0, 4.0), (2.93, 0.402), (1.34, 5.46), (0.05, 1.0), (0.25, 4.0), (1.05, 1.07)] + [
    tuple(pair) for pair in np.exp(np.random.default_rng(5).uniform(math.log(0.05), math.log(12.0), (40, 2)))
]
#: the same, and a three-piece sigma and the n = 128 node samples of 2 + sin x
ORACLE_PROFILES = [two_piece(*pair) for pair in TWO_PIECE_PAIRS] + [
    RelaxationProfile.parse("pc:1@1,4@3,0.5@2pi"),
    RelaxationProfile.from_grid(GridFunction(2.0 + np.sin(nodes(128)))),
]
ORACLE_IDS = [f"{a:.4g}-{b:.4g}" for a, b in TWO_PIECE_PAIRS] + ["three-pieces", "2+sin-n128"]


def perturbative_start(sigma):
    """theta* and alpha* of a profile: the weight and the start of the improved rate."""
    return theta_star(sigma.sigma_min, sigma.sigma_max), alpha_star(sigma.sigma_min, sigma.sigma_max)


class TestImprovedAlpha:
    def test_reference_iteration(self):
        res = improved_alpha(PROFILE_14, 1.0, ALPHA0)
        assert res.converged
        assert res.iterations < 100
        assert res.alpha_max == pytest.approx(0.7234, abs=1e-3)

    def test_first_update_uses_the_computed_constant(self):
        iterates = fixed_point_loop(PROFILE_14, 1.0, ALPHA0)
        assert iterates[0] == pytest.approx(ALPHA0)
        assert iterates[1] == pytest.approx(1.0 - C_SQ_ALPHA0 / 4.0, abs=1e-4)

    def test_fixed_point_residual(self):
        tol = 1e-6
        res = improved_alpha(PROFILE_14, 1.0, ALPHA0)
        w = weight_from_sigma(PROFILE_14, 1.0, res.alpha_max)
        c2 = weighted_poincare(w).c_omega_sq
        assert abs(res.alpha_max - (1.0 - c2 / 4.0)) < 2.0 * tol

    def test_improves_on_the_perturbative_rate(self):
        res = improved_alpha(PROFILE_14, 1.0, ALPHA0)
        assert res.alpha_max >= alpha_star(1.0, 4.0)

    def test_monotone_iterates(self):
        res = improved_alpha(PROFILE_14, 1.0, ALPHA0)
        assert all(b > a for a, b in zip(res.iterates, res.iterates[1:]))

    def test_inadmissible_start_rejected(self):
        with pytest.raises(ValidationError, match="alpha0 = 0.9 is inadmissible"):
            improved_alpha(PROFILE_14, 1.0, 0.9)

    @pytest.mark.parametrize("theta, alpha0", [(1.0, 1.0), (1.0, 0.0), (1.5, 0.5), (2.5, 0.1)])
    def test_a_start_outside_the_bracket_is_refused_before_any_count(self, theta, alpha0, monkeypatch):
        # min(theta, 2 sigma_min - theta) is 1, 1, 0.5 and -0.5
        monkeypatch.setattr(poincare, "_count", None)
        with pytest.raises(ValidationError, match=r"it needs 0 < alpha0 < min\(theta, 2 sigma_min - theta\) = "):
            improved_alpha(PROFILE_14, theta, alpha0)

    # the rate-certify profiles, and nearly equal pieces whose c_min lies just below 2/(w1 + w2)
    @pytest.mark.parametrize("pair", [(1.0, 4.0), (1.34, 5.46), (2.93, 0.402), (3.0, 3.1)], ids=str)
    def test_iterates_equal_the_cold_loop_and_c_min_never_falls(self, pair, monkeypatch):
        # the oracle loop with each constant from the determinant alone
        sigma = RelaxationProfile.two_piece(*pair)
        counted = fixed_point_loop(sigma, *perturbative_start(sigma))
        c_min = []

        def from_det(weight):
            c_min.append(det_c_min(weight))
            return poincare.PoincareResult(c_min=c_min[-1], c_omega_sq=1.0 / c_min[-1])

        monkeypatch.setattr(poincare, "weighted_poincare", from_det)
        cold = fixed_point_loop(sigma, *perturbative_start(sigma))
        assert counted == pytest.approx(cold, rel=1e-12, abs=0.0)
        assert all(b >= a for a, b in zip(c_min, c_min[1:]))

    @pytest.mark.parametrize("sigma", ORACLE_PROFILES, ids=ORACLE_IDS)
    def test_bisection_ends_at_the_fixed_point_of_the_loop(self, sigma):
        theta, alpha0 = perturbative_start(sigma)
        res = improved_alpha(sigma, theta, alpha0)
        assert res.converged and res.iterates[0] == alpha0 and poincare._admissible(sigma, theta, res.alpha_max)
        assert res.alpha_max == pytest.approx(fixed_point_loop(sigma, theta, alpha0)[-1], abs=1e-6)

    @pytest.mark.parametrize("sigma", ORACLE_PROFILES, ids=ORACLE_IDS)
    def test_admissibility_changes_sign_once_on_the_bracket(self, sigma):
        # so the bisection's boundary is the first fixed point above alpha0, which the loop reaches
        theta, alpha0 = perturbative_start(sigma)
        top = min(theta, 2.0 * sigma.sigma_min - theta)
        grid = alpha0 + (top - alpha0) * np.arange(400) / 400.0
        admissible = [poincare._admissible(sigma, theta, alpha) for alpha in grid]
        assert admissible[0] and sum(a != b for a, b in zip(admissible, admissible[1:])) == 1


#: sigma, its perturbative rate alpha*, the improved rate, and the optimal rate: 2 pi x the
#: real part of the leading telegrapher zero of the three pieces, and twice the leading
#: Fourier-Galerkin eigenvalue of the generator for sigma = 2 + sin x
N_PIECE_RATES = [
    (RelaxationProfile.parse("pc:1@1,4@3,0.5@2pi"), 0.385216, 0.440748, 2.0 * 0.386125),
    (RelaxationProfile.from_grid(GridFunction(2.0 + np.sin(nodes(128)))), 0.690599, 0.833509, 1.553767),
]


@pytest.mark.parametrize("sigma, perturbative, improved, optimal", N_PIECE_RATES, ids=["three-pieces", "2+sin-n128"])
def test_improved_rate_of_n_pieces_lies_between_the_perturbative_and_optimal_rates(
    sigma, perturbative, improved, optimal
):
    lo, hi = sigma.sigma_min, sigma.sigma_max
    res = improved_alpha(sigma, theta_star(lo, hi), alpha_star(lo, hi))
    assert res.converged
    assert alpha_star(lo, hi) == pytest.approx(perturbative, abs=1e-6)
    assert res.alpha_max == pytest.approx(improved, abs=1e-6)
    assert alpha_star(lo, hi) < res.alpha_max < optimal
