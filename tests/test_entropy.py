"""Entropy functionals, equivalence bounds, and the evolution identity."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gtlab.entropy import entropy_2v, entropy_3v, entropy_evolution_rhs, equivalence_bounds
from gtlab.errors import GridMismatchError, ValidationError
from gtlab.rates import constant_rate
from gtlab.profiles import RelaxationProfile
from gtlab.torus import GridFunction, nodes, norm_sq, random_band_limited


ONE = RelaxationProfile.constant(1.0)


def gf(fn, n=128):
    return GridFunction(fn(nodes(n)))


class TestEntropy2V:
    def test_mixed_term_vanishes_for_zero_g(self):
        for theta in (0.0, 0.7, 1.9, -1.0):
            assert entropy_2v(gf(np.sin), GridFunction(np.zeros(128)), theta) == pytest.approx(0.5)

    def test_sin_cos_theta_one(self):
        # antiderivative(sin) = -cos, <-cos, cos> = -1/2, so E = 1 + 1/2
        assert entropy_2v(gf(np.sin), gf(np.cos), 1.0) == pytest.approx(1.5, abs=1e-10)

    def test_sign_flip_of_mixed_term(self):
        assert entropy_2v(gf(np.sin), gf(lambda x: -np.cos(x)), 1.0) == pytest.approx(0.5, abs=1e-10)

    def test_grid_mismatch(self):
        with pytest.raises(GridMismatchError):
            entropy_2v(GridFunction(np.zeros(16)), GridFunction(np.zeros(32)), 1.0)


class TestEntropy3V:
    def test_reduces_to_2v_for_zero_h(self):
        f, g = gf(np.sin), gf(np.cos)
        assert entropy_3v(f, g, GridFunction(np.zeros(128)), 0.8) == pytest.approx(
            entropy_2v(f, g, 0.8)
        )

    def test_pure_third_component(self):
        z = GridFunction(np.zeros(128))
        assert entropy_3v(z, z, gf(np.cos), 1.0) == pytest.approx(0.5)

    def test_example_value(self):
        assert entropy_3v(gf(np.sin), gf(np.cos), gf(np.sin), 1.0) == pytest.approx(2.0, abs=1e-10)


class TestEquivalenceBounds:
    @pytest.mark.parametrize(
        "theta,expected",
        [(0.0, (1.0, 1.0)), (1.0, (0.5, 1.5)), (1.9, (0.05, 1.95)), (-1.0, (0.5, 1.5))],
    )
    def test_values(self, theta, expected):
        lo, hi = equivalence_bounds(theta)
        assert lo == pytest.approx(expected[0])
        assert hi == pytest.approx(expected[1])

    @given(
        st.integers(min_value=0, max_value=10_000),
        st.floats(min_value=-1.99, max_value=1.99),
    )
    def test_sandwich(self, seed, theta):
        f = random_band_limited(64, seed=seed, zero_mean=True)
        g = random_band_limited(64, seed=seed + 1)
        lo, hi = equivalence_bounds(theta)
        total = norm_sq(f) + norm_sq(g)
        e = entropy_2v(f, g, theta)
        assert lo * total - 1e-10 <= e <= hi * total + 1e-10


class TestEvolutionRhs:
    def test_only_mass_term(self):
        u = gf(lambda x: 2.0 + np.sin(x))
        assert entropy_evolution_rhs(u, GridFunction(np.zeros(128)), ONE, 1.0) == pytest.approx(-0.5)

    def test_flux_term_constant_sigma(self):
        u = GridFunction(np.full(128, 3.0))
        assert entropy_evolution_rhs(u, gf(np.cos), ONE, 1.0) == pytest.approx(-0.5)

    def test_constant_flux_includes_average_penalty(self):
        u = GridFunction(np.full(128, 3.0))
        v = GridFunction(np.ones(128))
        assert entropy_evolution_rhs(u, v, ONE, 1.0) == pytest.approx(-2.0)

    def test_complex_rejected(self):
        # the identity is stated for real states, the only kind a grid function holds
        with pytest.raises(ValidationError, match="must be real"):
            entropy_evolution_rhs(gf(lambda x: np.exp(1j * x)), GridFunction(np.zeros(128)), ONE, 1.0)


class TestModalConsistency:
    @pytest.mark.parametrize("sigma", [0.6, 1.0, 1.3])
    def test_entropy_equals_twisted_mode_sum(self, sigma):
        # E_sigma(f, g) = sum_k ||(f_k, g_k)||^2_{P_k} + |g_0|^2 for mean-zero f
        n = 64
        f = random_band_limited(n, seed=21, zero_mean=True)
        g = random_band_limited(n, seed=22)
        fc, gc = np.fft.fft(f.values) / n, np.fft.fft(g.values) / n
        theta = constant_rate(sigma).theta
        total = abs(gc[0]) ** 2
        for k in range(-n // 2 + 1, n // 2):
            if k == 0:
                continue
            p = np.array([[1.0, -1j * theta / (2.0 * k)], [1j * theta / (2.0 * k), 1.0]])
            y = np.array([fc[k % n], gc[k % n]])
            total += (y.conj() @ p @ y).real
        assert total == pytest.approx(entropy_2v(f, g, sigma), abs=1e-10)
