"""Grid functions and the spectral calculus operators."""

import math

import numpy as np
import pytest
from conftest import write_field
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from gtlab.errors import GridMismatchError, ValidationError
from gtlab.torus import (
    TWO_PI,
    GridFunction,
    antiderivative,
    average,
    derivative,
    inner,
    nodes,
    norm,
    norm_sq,
    primitive,
    random_band_limited,
    write_csv,
)


def gf(fn, n=64):
    return GridFunction(fn(nodes(n)))


def band_limited(draw_amplitudes, c=0.0, n=64):
    """Build a real trig polynomial c + sum_k a_k cos(kx) + b_k sin(kx) from (a_k, b_k) pairs."""
    x = nodes(n)
    vals = np.zeros(n)
    for k, (a, b) in enumerate(draw_amplitudes, start=1):
        vals += a * np.cos(k * x) + b * np.sin(k * x)
    return GridFunction(vals + c)


amplitude = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
amplitude_pairs = st.lists(st.tuples(amplitude, amplitude), min_size=1, max_size=6)


class TestGridFunction:
    def test_validation(self):
        with pytest.raises(ValidationError):
            GridFunction(np.zeros(6))  # too small
        with pytest.raises(ValidationError):
            GridFunction(np.zeros(9))  # odd
        with pytest.raises(ValidationError):
            GridFunction(np.zeros((4, 4)))

    def test_immutability(self):
        f = GridFunction(np.zeros(16))
        with pytest.raises(ValueError):
            f.values[0] = 1.0

    def test_grid_mismatch(self):
        with pytest.raises(GridMismatchError):
            inner(GridFunction(np.zeros(16)), GridFunction(np.zeros(32)))


class TestAverage:
    def test_constant(self):
        assert average(GridFunction(np.full(32, 3.25))) == pytest.approx(3.25)

    def test_sin(self):
        assert abs(average(gf(np.sin))) < 1e-14

    def test_one_plus_cos3x(self):
        f = gf(lambda x: 1.0 + np.cos(3 * x))
        assert average(f) == pytest.approx(1.0, abs=1e-14)


class TestInner:
    def test_sin_sin(self):
        assert inner(gf(np.sin), gf(np.sin)) == pytest.approx(0.5, abs=1e-14)

    def test_sin_cos_orthogonal(self):
        assert abs(inner(gf(np.sin), gf(np.cos))) < 1e-14

    def test_ones(self):
        one = GridFunction(np.ones(64))
        assert inner(one, one) == pytest.approx(1.0)


class TestDerivative:
    def test_sin(self):
        assert_allclose(derivative(gf(np.sin)).values, np.cos(nodes(64)), atol=1e-12)

    def test_constant(self):
        assert_allclose(derivative(GridFunction(np.full(32, 5.0))).values, 0.0, atol=1e-13)

    def test_cos4x_against_finite_differences(self):
        # derived oracle: centered differences at N=256
        n = 256
        x = nodes(n)
        f = np.cos(4 * x)
        h = 2 * np.pi / n
        fd = (np.roll(f, -1) - np.roll(f, 1)) / (2 * h)
        spectral = derivative(GridFunction(f)).values
        # the FD oracle itself carries O(h^2) error; compare both to -4 sin
        assert np.max(np.abs(fd + 4 * np.sin(4 * x))) < 1e-2
        assert np.max(np.abs(spectral + 4 * np.sin(4 * x))) < 1e-8


class TestAntiderivative:
    def test_sin_gives_minus_cos(self):
        assert_allclose(antiderivative(gf(np.sin)).values, -np.cos(nodes(64)), atol=1e-13)

    def test_zero(self):
        assert_allclose(antiderivative(GridFunction(np.zeros(32))).values, 0.0)

    def test_cos2x_against_cumsum_oracle(self):
        # derived oracle: high-resolution left-endpoint cumulative sum,
        # downsampled to the N=128 nodes, re-centred to zero mean
        n, over = 128, 64
        fine = np.cos(2 * np.arange(n * over) * (2 * np.pi / (n * over)))
        cum = np.concatenate([[0.0], np.cumsum(fine)[:-1]]) * (2 * np.pi / (n * over))
        oracle = cum[::over] - np.mean(cum[::over])
        result = antiderivative(gf(lambda x: np.cos(2 * x), n)).values
        assert np.max(np.abs(result - oracle)) < 1e-3  # oracle is only O(1/over)
        assert np.max(np.abs(result - np.sin(2 * nodes(n)) / 2)) < 1e-10

    def test_nonzero_mean_literal_path(self):
        # a nonzero mean is dropped: the result is the primitive of f - avg f
        f = gf(lambda x: 1.0 + np.cos(3 * x))
        assert_allclose(antiderivative(f).values, np.sin(3 * nodes(64)) / 3, atol=1e-14)


class TestOperatorIdentities:
    @given(amplitude_pairs)
    def test_derivative_of_antiderivative(self, amps):
        f = band_limited(amps)
        assert np.max(np.abs(derivative(antiderivative(f)).values - f.values)) < 1e-10

    @given(amplitude_pairs, amplitude)
    def test_antiderivative_of_derivative(self, amps, c):
        f = band_limited(amps, c)
        expected = f.values - average(f)
        assert np.max(np.abs(antiderivative(derivative(f)).values - expected)) < 1e-10

    @given(amplitude_pairs, amplitude)
    def test_antiderivative_has_zero_average(self, amps, c):
        f = band_limited(amps, c)
        assert abs(average(antiderivative(f))) < 1e-12

    @given(amplitude_pairs)
    def test_poincare_inequality(self, amps):
        f = band_limited(amps)
        assert norm(f) <= norm(derivative(f)) + 1e-12

    def test_poincare_equality_on_first_harmonic(self):
        for f in (gf(np.sin), gf(np.cos), gf(lambda x: 2 * np.sin(x) - np.cos(x))):
            assert norm(f) == pytest.approx(norm(derivative(f)), abs=1e-12)

    @given(amplitude_pairs, amplitude)
    def test_plancherel(self, amps, c):
        f = band_limited(amps, c)
        coeffs = np.fft.fft(f.values) / f.n
        assert np.sum(np.abs(coeffs) ** 2) == pytest.approx(norm_sq(f), abs=1e-12)


class TestPrimitive:
    def test_leading_axes_are_separate_functions(self):
        stack = np.array([random_band_limited(64, seed=s).values for s in range(6)]).reshape(2, 3, 64)
        rows = np.array([primitive(row) for row in stack.reshape(6, 64)]).reshape(2, 3, 64)
        assert_allclose(primitive(stack), rows, rtol=0, atol=1e-15)


class TestSerialization:
    def test_csv_roundtrip(self, tmp_path):
        f = random_band_limited(32, seed=5)
        path = tmp_path / "f.csv"
        write_field(path, f.values)
        assert_allclose(GridFunction.from_csv(path).values, f.values, rtol=0, atol=0)

    @pytest.mark.parametrize("shift, ok", [(0.009, True), (-0.009, True), (0.011, False), (np.nan, False)])
    def test_x_column_must_hold_the_nodes(self, tmp_path, shift, ok):
        # row j = 5 (line 7) moved by a share of the grid spacing
        x = nodes(16)
        x[5] += shift * (2 * np.pi / 16)
        path = tmp_path / "f.csv"
        path.write_text("x,value\n" + "".join(f"{xj!r},1\n" for xj in x.tolist()))
        if ok:
            assert np.array_equal(GridFunction.from_csv(path).values, np.ones(16))
        else:
            with pytest.raises(ValidationError, match="line 7: x = .* is not the grid node"):
                GridFunction.from_csv(path)

    def test_complex_rejected(self):
        # grid functions are real: complex samples never reach a CSV
        with pytest.raises(ValidationError, match="must be real"):
            gf(lambda x: np.exp(1j * x))

    @pytest.mark.parametrize(
        "text, where",
        [
            ("", "header row"),
            ("x\n", "header row"),
            ("x,value\n0,1\n\n0.5\n", "line 4"),
            ("x,value\n0,1\n0.5,abc\n", "line 3"),
        ],
        ids=["empty", "one-column-header", "one-cell-row", "non-number"],
    )
    def test_malformed_csv_names_the_file_and_line(self, tmp_path, text, where):
        path = tmp_path / "f.csv"
        path.write_text(text)
        with pytest.raises(ValidationError) as exc:
            GridFunction.from_csv(path)
        assert str(path) in str(exc.value) and where in str(exc.value)

    def test_float_table_writes_the_bytes_of_its_cells(self, tmp_path):
        # the one-format-per-row path against the cell-by-cell path
        rng = np.random.default_rng(7)
        table = rng.standard_normal((200, 4)) * 10.0 ** rng.integers(-300, 300, (200, 4))
        table[0] = [np.nan, np.inf, -np.inf, -0.0]
        table[1] = [0.0, 1.0, 5e-324, 0.1]
        header = ["t", "a,b", 'q"x', "c"]
        write_csv(tmp_path / "array.csv", header, table)
        write_csv(tmp_path / "cells.csv", header, [tuple(row) for row in table])
        data = (tmp_path / "array.csv").read_bytes()
        assert data == (tmp_path / "cells.csv").read_bytes()
        assert data.count(b"\r\n") == 201


class TestRandomBandLimited:
    def test_deterministic(self):
        a = random_band_limited(64, seed=1)
        b = random_band_limited(64, seed=1)
        assert np.array_equal(a.values, b.values)

    def test_zero_mean(self):
        f = random_band_limited(64, seed=2, zero_mean=True)
        assert abs(average(f)) < 1e-14

    def test_band_limit(self):
        f = random_band_limited(64, seed=3)
        c = np.fft.fft(f.values) / f.n
        k = np.fft.fftfreq(f.n, d=1.0 / f.n)
        assert np.max(np.abs(c[np.abs(k) > 8])) < 1e-14

    @staticmethod
    def draws(n, seed, zero_mean):
        """a_0 and the (a_k, b_k) pairs, drawn in the order the field draws them."""
        rng = np.random.default_rng(seed)
        a0 = 0.0 if zero_mean else rng.uniform(-1.0, 1.0)
        return a0, rng.uniform(-1.0, 1.0, size=(n // 8, 2))

    @pytest.mark.parametrize("n", [64, 4096])
    @pytest.mark.parametrize("zero_mean", [False, True])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_spectrum_is_the_drawn_amplitudes(self, n, zero_mean, seed):
        a0, ab = self.draws(n, seed, zero_mean)
        c = np.fft.rfft(random_band_limited(n, seed, zero_mean).values) * 2.0 / n
        assert abs(c[0] / 2.0 - a0) < 1e-13
        assert np.max(np.abs(c[1 : n // 8 + 1] - (ab[:, 0] - 1j * ab[:, 1]))) < 1e-13
        assert np.max(np.abs(c[n // 8 + 1 :])) < 1e-13

    @pytest.mark.parametrize("zero_mean", [False, True])
    def test_matches_a_sum_with_exactly_reduced_angles(self, zero_mean):
        # angle k x_j reduced as 2 pi ((k j) mod n) / n, terms summed exactly;
        # a sum of cos(k x_j) with rounded k x_j is off by 7.7e-12 here
        n = 4096
        a0, ab = self.draws(n, 0, zero_mean)
        kj = np.outer(np.arange(1, n // 8 + 1), np.arange(n)) % n
        angle = TWO_PI * kj / n
        terms = ab[:, :1] * np.cos(angle) + ab[:, 1:] * np.sin(angle)
        direct = np.array([math.fsum([a0, *column]) for column in terms.T])
        f = random_band_limited(n, seed=0, zero_mean=zero_mean)
        assert np.max(np.abs(f.values - direct)) < 1e-13
