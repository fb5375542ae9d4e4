"""Mode eigenvalues and Lyapunov gaps against the 2x2 mode matrices, built here."""

import decimal
import math

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from gtlab.errors import ValidationError
from gtlab.modal import eigenvalues, lyapunov_gap, modal_report, spectral_gap
from gtlab.rates import constant_rate, needs_eps

SIGMAS = (0.5, 1.0, 1.9, 2.1, 3.0, 4.0, 5.0, 8.0)


def c_matrix(k, sigma):
    """System matrix C_k of mode k: trace sigma, determinant k^2."""
    return np.array([[0.0, 1j * k], [1j * k, sigma]])


def twist(k, sigma, eps=None):
    """The constant-sigma twist P_k: unit diagonal, off-diagonal -i theta/(2k)."""
    a = constant_rate(sigma, eps).theta / (2.0 * k)
    return np.array([[1.0, -1j * a], [1j * a, 1.0]])


class TestCMatrix:
    def test_k_zero(self):
        eig = np.sort_complex(np.linalg.eigvals(c_matrix(0, 3.0)))
        assert_allclose(eig, [0.0, 3.0])
        assert (eigenvalues(0, 3.0).lam_minus, eigenvalues(0, 3.0).lam_plus) == (0.0, 3.0)

    def test_trace_and_determinant(self):
        for k in (-3, 1, 7):
            for s in (0.5, 2.0, 6.0):
                eig = eigenvalues(k, s)
                assert eig.lam_minus + eig.lam_plus == pytest.approx(np.trace(c_matrix(k, s)))
                assert eig.lam_minus * eig.lam_plus == pytest.approx(k**2)

    def test_eigenvalues_match_formula(self):
        eig = sorted(np.linalg.eigvals(c_matrix(1, 5.0)), key=lambda z: z.real)
        assert eig[0] == pytest.approx((5.0 - math.sqrt(21.0)) / 2.0)
        assert eig[1] == pytest.approx((5.0 + math.sqrt(21.0)) / 2.0)
        assert (eigenvalues(1, 5.0).lam_minus, eigenvalues(1, 5.0).lam_plus) == pytest.approx(eig)

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

    @pytest.mark.parametrize("sigma", [2.5, 1e4, 1e8, 1e300])
    def test_closed_form_at_any_size(self, sigma):
        # sigma/2 -+ sqrt(sigma^2/4 - k^2) in 1000 digits, at k = 1, at the
        # integer k = round(sigma/2) (300 digits at 1e300) and, where floats
        # hold it, one mode past it, whose pair is complex
        ks = {1, round(sigma / 2.0)} | ({round(sigma / 2.0) + 1} if sigma < 1e15 else set())
        for k in ks:
            with decimal.localcontext(decimal.Context(prec=1000)):
                half = decimal.Decimal(sigma) / 2
                disc = half * half - k * k
                root = abs(disc).sqrt()
                pair = (half - root, half + root) if disc >= 0 else (-root, root)
                pair = [complex(half, z) if disc < 0 else complex(z) for z in pair]
            eig = eigenvalues(k, sigma)
            assert (eig.lam_minus, eig.lam_plus) == pytest.approx(pair, rel=1e-15)

    def test_ordering_convention(self):
        eig = eigenvalues(2, 2.0)
        assert eig.lam_minus.imag < eig.lam_plus.imag
        eig = eigenvalues(1, 5.0)
        assert eig.lam_minus.real < eig.lam_plus.real

    @pytest.mark.parametrize("sigma", [1.0, 4.0, 5.0, 1e300])
    def test_an_array_of_modes_gives_each_mode_bit_for_bit(self, sigma):
        ks = np.array([0, 1, 2, 3, 17])
        eig = eigenvalues(ks, sigma)
        for i, k in enumerate(ks.tolist()):
            one = eigenvalues(k, sigma)
            assert (eig.lam_minus[i], eig.lam_plus[i], eig.defective[i]) == tuple(one)


class TestTwistMatrices:
    """The twist P_k of the constant-sigma functional, built from ``constant_rate``'s theta."""

    def test_high_mode_example(self):
        assert_allclose(twist(2, 1.0), np.array([[1.0, -0.25j], [0.25j, 1.0]]))

    def test_sufficient_example(self):
        assert_allclose(twist(1, 4.0), np.array([[1.0, -0.5j], [0.5j, 1.0]]))

    def test_defective_magnitude(self):
        assert abs(twist(1, 2.0, eps=0.5)[0, 1]) == pytest.approx(7.0 / 9.0)

    def test_sufficient_matches_low_mode_at_k_one(self):
        # the paper's low-mode twist has off-diagonal -2ki/sigma
        for k in (1, -1):
            for s in (4.0, 7.3):
                assert twist(k, s)[0, 1] == pytest.approx(-2j * k / s, rel=1e-15)

    def test_sufficient_eps_matches_defective_at_k_one(self):
        # the paper's sigma = 2 twist has off-diagonal -i c/k, c = (2 - eps^2)/(2 + eps^2)
        for k in (1, -1):
            c = (2.0 - 0.3**2) / (2.0 + 0.3**2)
            assert twist(k, 2.0, eps=0.3)[0, 1] == pytest.approx(-1j * c / k, rel=1e-15)

    def test_symbol_of_the_constant_rate_twist(self):
        # off-diagonal -i theta/(2k): sigma/(2k) below 2, 2/(k sigma) above
        for s in (0.5, 1.9, 2.1, 5.0):
            for k in (-3, 1, 4):
                expected = s / (2.0 * k) if s < 2.0 else 2.0 / (k * s)
                assert twist(k, s)[0, 1] == pytest.approx(-1j * expected, rel=1e-15)

    def test_all_selected_twists_are_hermitian_pd_unit_diagonal(self):
        # theta < 2 for every constant sigma, so |theta/(2k)| < 1
        for s in SIGMAS:
            for k in (-5, -1, 1, 2, 9):
                m = twist(k, s, eps=0.2 if abs(s - 2.0) < 1e-12 else None)
                assert np.max(np.abs(m - m.conj().T)) < 1e-15
                assert m[0, 0] == 1.0 and m[1, 1] == 1.0
                assert np.min(np.linalg.eigvalsh(m)) > 0.0

    def test_k_zero_rejected(self):
        with pytest.raises(ValidationError, match="conserved mode k = 0"):
            lyapunov_gap(0, 1.0)
        with pytest.raises(ValidationError, match="conserved mode k = 0"):
            lyapunov_gap(np.arange(3), 1.0)

    def test_eps_handling(self):
        with pytest.raises(ValidationError):
            lyapunov_gap(1, 2.0)  # missing eps
        with pytest.raises(ValidationError):
            lyapunov_gap(1, 1.0, eps=0.5)  # eps without sigma = 2


class TestLyapunovGap:
    def test_sharp_below_two(self):
        for k in (1, -2, 7):
            assert lyapunov_gap(k, 1.0) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("sigma", [1e-300, 1e-8, 0.1, 1.0, 1.5, 1.9, 1.999])
    def test_half_sigma_below_two(self, sigma):
        ks = np.arange(1, 1001)
        assert_allclose(lyapunov_gap(ks, sigma), sigma / 2.0, rtol=1e-15, atol=0)

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
        p, c = twist(k, sigma, eps), c_matrix(k, sigma)
        s = c.conj().T @ p + p @ c
        expected = scipy.linalg.eigh(s, p, eigvals_only=True).min() / 2.0
        assert lyapunov_gap(k, sigma, eps) == pytest.approx(expected, rel=0, abs=1e-12)

    @pytest.mark.parametrize("sigma", [1e8, 1e300, 1.7e308])
    def test_huge_sigma_keeps_the_gap(self, sigma):
        # theta = 4/sigma and s -> 1: the gap is (theta/2)(1 - 1/(2k^2)) = (2 - 1/k^2)/sigma
        ks = np.arange(1, 51)
        assert_allclose(lyapunov_gap(ks, sigma), (2.0 - 1.0 / ks**2) / sigma, rtol=1e-12, atol=0)

    def test_an_array_of_modes_gives_each_mode(self):
        ks = np.array([-4, 1, 2, 3, 50])
        for s, eps in ((0.5, None), (2.0, 0.3), (5.0, None)):
            gaps = lyapunov_gap(ks, s, eps)
            assert gaps.tolist() == [lyapunov_gap(k, s, eps) for k in ks.tolist()]

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

    def test_huge_sigma(self):
        # every float above 2^53 is an integer; 1e300 is even, so mode sigma/2 is defective
        assert spectral_gap(1e300) == (pytest.approx(1e-300, rel=1e-15), True)

    def test_defective_flags(self):
        assert spectral_gap(4.0).defective
        assert spectral_gap(6.0).defective
        assert not spectral_gap(5.0).defective
        assert not spectral_gap(1.0).defective


class TestModalReport:
    def test_rows_and_cases(self):
        report = modal_report(5.0, 6)
        assert report["k"].tolist() == [1, 2, 3, 4, 5, 6]
        assert report["case"].tolist() == ["I", "I", "III", "III", "III", "III"]
        assert report["re_lam_minus"][0] == pytest.approx((5.0 - math.sqrt(21.0)) / 2.0)

    def test_defective_case_tag(self):
        assert modal_report(4.0, 3, eps=None)["case"][1] == "II"

    def test_columns_are_the_modes(self):
        report = modal_report(2.0, 4, eps=0.5)
        assert list(report) == [
            "k", "re_lam_minus", "im_lam_minus", "re_lam_plus", "im_lam_plus", "lyapunov_gap", "case"
        ]
        for i, k in enumerate(report["k"].tolist()):
            eig = eigenvalues(k, 2.0)
            assert report["re_lam_minus"][i] + 1j * report["im_lam_minus"][i] == eig.lam_minus
            assert report["re_lam_plus"][i] + 1j * report["im_lam_plus"][i] == eig.lam_plus
            assert report["lyapunov_gap"][i] == lyapunov_gap(k, 2.0, 0.5)


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
    assert (modal_report(sigma, 3, eps=eps)["case"][k - 1] == "II") == defective
