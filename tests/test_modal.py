"""Mode matrices, twist matrices, and Lyapunov gaps."""

import math

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from gtlab.errors import ValidationError
from gtlab.modal import (
    c_matrix,
    eigenvalues,
    lyapunov_gap,
    modal_report,
    p_defective,
    p_low_mode,
    p_matrix,
    spectral_gap,
)
from gtlab.rates import constant_rate, needs_eps

SIGMAS = (0.5, 1.0, 1.9, 2.1, 3.0, 4.0, 5.0, 8.0)


class TestCMatrix:
    def test_k_zero(self):
        assert_allclose(c_matrix(0, 3.0), np.array([[0, 0], [0, 3.0]], dtype=complex))

    def test_trace_and_determinant(self):
        for k in (-3, 1, 7):
            for s in (0.5, 2.0, 6.0):
                m = c_matrix(k, s)
                assert np.trace(m) == pytest.approx(s)
                assert np.linalg.det(m) == pytest.approx(k**2)

    def test_eigenvalues_match_formula(self):
        m = c_matrix(1, 5.0)
        eig = sorted(np.linalg.eigvals(m), key=lambda z: z.real)
        assert eig[0] == pytest.approx((5.0 - math.sqrt(21.0)) / 2.0)
        assert eig[1] == pytest.approx((5.0 + math.sqrt(21.0)) / 2.0)

    def test_complex_case(self):
        eig = eigenvalues(3, 2.0)
        assert eig.lam_minus == pytest.approx(1.0 - 1j * math.sqrt(8.0))
        assert eig.lam_plus == pytest.approx(1.0 + 1j * math.sqrt(8.0))


class TestEigenvalues:
    def test_zero_mode(self):
        eig = eigenvalues(0, 3.0)
        assert eig.lam_minus == 0
        assert eig.lam_plus == 3.0
        assert not eig.defective

    def test_defective_flag(self):
        assert eigenvalues(1, 2.0).defective
        assert eigenvalues(2, 4.0).defective
        assert not eigenvalues(2, 2.0).defective

    def test_ordering_convention(self):
        eig = eigenvalues(2, 2.0)
        assert eig.lam_minus.imag < eig.lam_plus.imag
        eig = eigenvalues(1, 5.0)
        assert eig.lam_minus.real < eig.lam_plus.real


class TestTwistMatrices:
    def test_high_mode_example(self):
        p = p_matrix(2, 1.0)
        assert_allclose(p.entries, np.array([[1.0, -0.25j], [0.25j, 1.0]]))

    def test_sufficient_example(self):
        p = p_matrix(1, 4.0)
        assert_allclose(p.entries, np.array([[1.0, -0.5j], [0.5j, 1.0]]))

    def test_defective_magnitude(self):
        p = p_matrix(1, 2.0, eps=0.5)
        assert abs(p.entries[0, 1]) == pytest.approx(7.0 / 9.0)

    def test_sufficient_matches_low_mode_at_k_one(self):
        for k in (1, -1):
            assert_allclose(p_matrix(k, 4.0).entries, p_low_mode(k, 4.0).entries)
            assert_allclose(p_matrix(k, 7.3).entries, p_low_mode(k, 7.3).entries)

    def test_sufficient_eps_matches_defective_at_k_one(self):
        for k in (1, -1):
            assert_allclose(p_matrix(k, 2.0, eps=0.3).entries, p_defective(0.3, k).entries)

    def test_symbol_of_the_constant_rate_twist(self):
        # off-diagonal -i theta/(2k): sigma/(2k) below 2, 2/(k sigma) above
        for s in (0.5, 1.9, 2.1, 5.0):
            for k in (-3, 1, 4):
                expected = s / (2.0 * k) if s < 2.0 else 2.0 / (k * s)
                assert p_matrix(k, s).entries[0, 1] == pytest.approx(-1j * expected, rel=1e-15)

    def test_all_selected_twists_are_hermitian_pd_unit_diagonal(self):
        for s in SIGMAS:
            for k in (-5, -1, 1, 2, 9):
                p = p_matrix(k, s, eps=0.2 if abs(s - 2.0) < 1e-12 else None)
                m = p.entries
                assert np.max(np.abs(m - m.conj().T)) < 1e-15
                assert m[0, 0] == 1.0 and m[1, 1] == 1.0
                assert np.min(np.linalg.eigvalsh(m)) > 0.0

    def test_k_zero_rejected(self):
        with pytest.raises(ValidationError):
            p_matrix(0, 1.0)

    def test_eps_handling(self):
        with pytest.raises(ValidationError):
            p_matrix(1, 2.0)  # missing eps
        with pytest.raises(ValidationError):
            p_matrix(1, 1.0, eps=0.5)  # eps without sigma = 2


class TestLyapunovGap:
    def test_sharp_below_two(self):
        for k in (1, -2, 7):
            assert lyapunov_gap(k, 1.0) == pytest.approx(0.5, abs=1e-12)

    def test_sigma_four_k_one(self):
        assert lyapunov_gap(1, 4.0) == pytest.approx(2.0 - math.sqrt(3.0), abs=1e-12)

    def test_defective_regularised(self):
        assert lyapunov_gap(1, 2.0, eps=0.25) >= 0.75 - 1e-12

    @pytest.mark.parametrize(
        "k, sigma, eps",
        [(k, s, None) for s in (0.1, 0.5, 1.0, 3.0, 5.0, 12.0) for k in (1, 2, 3, 7)]
        + [(k, 2.0, e) for e in (0.1, 0.5) for k in (1, -1)],
    )
    def test_matches_the_generalised_eigensolver(self, k, sigma, eps):
        # oracle: LAPACK's generalised Hermitian solver on the pencil (S, P)
        p = p_matrix(k, sigma, eps).entries
        c = c_matrix(k, sigma)
        s = c.conj().T @ p + p @ c
        expected = scipy.linalg.eigh(s, p, eigvals_only=True).min() / 2.0
        assert lyapunov_gap(k, sigma, eps) == pytest.approx(expected, rel=0, abs=1e-12)

    def test_gap_dominates_mu_everywhere(self):
        for s in SIGMAS:
            rep = constant_rate(s) if abs(s - 2.0) > 1e-12 else None
            mu = rep.mu if rep else None
            for k in list(range(1, 51)) + [-1, -17, -50]:
                assert lyapunov_gap(k, s) >= mu - 1e-10


class TestSpectralGap:
    def test_examples(self):
        assert spectral_gap(5.0).mu == pytest.approx((5.0 - math.sqrt(21.0)) / 2.0)
        assert spectral_gap(1.0) == (0.5, False)
        assert spectral_gap(2.0) == (1.0, True)

    def test_matches_constant_rate_off_defective_points(self):
        for s in np.linspace(0.05, 10.0, 100):
            if abs(s / 2.0 - round(s / 2.0)) < 1e-9 and s >= 2.0:
                continue
            assert spectral_gap(float(s)).mu == pytest.approx(constant_rate(float(s)).mu)

    def test_defective_flags(self):
        assert spectral_gap(4.0).defective
        assert spectral_gap(6.0).defective
        assert not spectral_gap(5.0).defective
        assert not spectral_gap(1.0).defective


class TestModalReport:
    def test_rows_and_cases(self):
        rows = modal_report(5.0, 6)
        assert [r["k"] for r in rows] == [1, 2, 3, 4, 5, 6]
        assert [r["case"] for r in rows] == ["I", "I", "III", "III", "III", "III"]
        assert rows[0]["re_lam_minus"] == pytest.approx((5.0 - math.sqrt(21.0)) / 2.0)

    def test_defective_case_tag(self):
        rows = modal_report(4.0, 3, eps=None)
        assert rows[1]["case"] == "II"


@pytest.mark.parametrize(
    "sigma, k, defective",
    [(2.0 + 1.5e-12, 1, False), (2.0 + 5e-13, 1, True), (4.0 + 1.5e-12, 2, False)],
)
def test_one_defectiveness_rule(sigma, k, defective):
    # mode k is defective iff |sigma - 2|k|| <= 1e-12, the rule of rates.needs_eps
    eps = 0.5 if needs_eps(sigma) else None
    assert needs_eps(sigma) == (defective and k == 1)
    assert eigenvalues(k, sigma).defective == defective
    assert spectral_gap(sigma).defective == defective
    assert (modal_report(sigma, 3, eps=eps)[k - 1]["case"] == "II") == defective
