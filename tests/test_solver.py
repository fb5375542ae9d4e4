"""Time integration: exactness properties, conservation laws, decay fits."""

import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gtlab import entropy, solver
from gtlab.entropy import entropy_2v, entropy_3v, entropy_evolution_rhs
from gtlab.errors import NumericalError, ValidationError
from gtlab.profiles import RelaxationProfile
from gtlab.rates import alpha_star, constant_rate, rate_3v, theta_star
from gtlab.solver import (
    TRANSFORM_3V,
    MacroState2V,
    MacroState3V,
    fit_decay_rate,
    fit_envelope_rate,
    simulate_2v,
    simulate_3v,
    to_macro3,
)
from gtlab.telegrapher import optimal_rate, rescale_sigma, telegrapher_gap
from gtlab.torus import (
    GridFunction,
    average,
    derivative,
    nodes,
    norm,
    norm_sq,
    random_band_limited,
)


const = RelaxationProfile.constant
#: the two-piece sigma of the blow-up pins, which the steppers in x step
TWO_PIECE = "pc:1@pi,2@2pi"


def gf(fn, n=256):
    return GridFunction(fn(nodes(n)))


class TestChangesOfVariables:
    def test_flat_kinetic_state_from_macro(self):
        k = solver._SYSTEM_2V.kinetic @ np.vstack([np.full(64, 2.0), np.zeros(64)])
        assert_allclose(k, 1.0)  # f_inf = u_avg / 2

    def test_round_trip(self):
        # the 2v maps are inverses exactly: every entry is 0.5 or 1 in size
        system = solver._SYSTEM_2V
        assert np.array_equal(system.kinetic @ system.macro, np.eye(2))
        assert np.array_equal(system.macro @ system.kinetic, np.eye(2))
        f = np.vstack([random_band_limited(64, seed=s).values for s in (1, 2)])
        assert np.max(np.abs(system.kinetic @ (system.macro @ f) - f)) < 1e-14


class TestTransform3V:
    def test_orthogonality(self):
        assert np.max(np.abs(TRANSFORM_3V @ TRANSFORM_3V.T - np.eye(3))) < 1e-15

    def test_kernel_of_relaxation(self):
        c = GridFunction(np.full(64, 2.0))
        m = to_macro3(c, c, c)
        assert_allclose(m.u1.values, 2.0 * np.sqrt(3.0))
        assert_allclose(m.u2.values, 0.0, atol=1e-15)
        assert_allclose(m.u3.values, 0.0, atol=1e-15)

    def test_equilibrium_value(self):
        one = GridFunction(np.ones(64))
        m = to_macro3(one, one, one)
        # u_inf = (1/(2 sqrt(3) pi)) * integral of (f1+f2+f3) = sqrt(3)
        assert average(m.u1) == pytest.approx(np.sqrt(3.0))

    def test_round_trip(self):
        system = solver._SYSTEM_3V
        assert np.max(np.abs(system.kinetic @ system.macro - np.eye(3))) < 1e-15
        assert np.max(np.abs(system.macro @ system.kinetic - np.eye(3))) < 1e-15
        fs = [random_band_limited(64, seed=s) for s in (3, 4, 5)]
        m = to_macro3(*fs)
        back = system.kinetic @ np.vstack([m.u1.values, m.u2.values, m.u3.values])
        assert np.max(np.abs(back - np.vstack([f.values for f in fs]))) < 1e-14


class TestSimulate2V:
    def test_steady_state_both_schemes(self):
        init = MacroState2V(GridFunction(np.full(64, 2.0)), GridFunction(np.zeros(64)))
        for scheme in ("split", "rk4"):
            traj = simulate_2v(init, const(1.3), 2.0, scheme=scheme, theta=1.3)
            assert np.max(traj["norm_u_dev"]) < 1e-12
            assert np.max(traj["norm_v"]) < 1e-12

    def test_zero_mode_closed_form(self):
        # u0 = 0, v0 = 1: v(t) = e^{-sigma t} uniformly, u stays 0
        init = MacroState2V(GridFunction(np.zeros(64)), GridFunction(np.ones(64)))
        traj = simulate_2v(init, const(1.0), 5.0, theta=1.0)
        assert np.max(np.abs(traj["norm_v"] - np.exp(-traj.times))) < 1e-13
        assert np.max(traj["norm_u_dev"]) < 1e-14

    def test_first_mode_sharp_rate(self):
        init = MacroState2V(GridFunction(np.zeros(256)), gf(np.cos))
        traj = simulate_2v(init, const(1.0), 30.0, theta=1.0)
        rate, r2 = fit_decay_rate(traj.times, traj.pair_norm(), window=(5.0, 25.0))
        assert rate == pytest.approx(0.5, rel=0.02)
        assert r2 > 0.99

    def test_constant_sigma_entropy_is_exact_exponential(self):
        # with v_avg = 0 the entropy identity closes: E(t) = E(0) e^{-sigma t}
        init = MacroState2V(GridFunction(np.zeros(256)), gf(np.cos))
        traj = simulate_2v(init, const(1.0), 10.0, theta=1.0)
        expected = traj["entropy"][0] * np.exp(-traj.times)
        # the law is exact for the flow; the trajectory carries O(dt^2) error
        assert np.max(np.abs(traj["entropy"] - expected)) < 1e-4

    def test_records_scale_with_the_data(self):
        # entropy and rhs are quadratic in the state; large data must not
        # change how the record computes the primitive of u - u_avg
        u0, v0 = random_band_limited(256, seed=3), random_band_limited(256, seed=4)
        base = simulate_2v(MacroState2V(u0, v0), const(1.0), 10.0, theta=1.0)
        big = simulate_2v(
            MacroState2V(GridFunction(1e4 * u0.values), GridFunction(1e4 * v0.values)),
            const(1.0),
            10.0,
            theta=1.0,
        )
        for name in ("entropy", "rhs"):
            assert_allclose(big[name], 1e8 * base[name], rtol=1e-12, atol=0.0)

    def test_theta_is_required(self):
        # the twist is the caller's choice: rates.rate_2v or rate_3v gives the theoretical one
        init = MacroState2V(GridFunction(np.zeros(64)), gf(np.cos, 64))
        with pytest.raises(TypeError, match="theta"):
            simulate_2v(init, const(2.0), 1.0)
        with pytest.raises(TypeError, match="theta"):
            simulate_3v(to_macro3(init.u, init.v, init.v), const(1.0), 1.0)

    def test_mass_conservation_split(self):
        init = MacroState2V(random_band_limited(256, seed=3), random_band_limited(256, seed=4))
        traj = simulate_2v(init, RelaxationProfile.two_piece(1.0, 4.0), 10.0, theta=theta_star(1.0, 4.0))
        assert np.max(np.abs(traj["mass"] - traj["mass"][0])) < 1e-12

    def test_mass_conservation_rk4(self):
        init = MacroState2V(random_band_limited(256, seed=5), random_band_limited(256, seed=6))
        traj = simulate_2v(init, const(1.5), 5.0, scheme="rk4", theta=1.5)
        assert np.max(np.abs(traj["mass"] - traj["mass"][0])) < 1e-10

    def test_flux_average_law(self):
        init = MacroState2V(random_band_limited(256, seed=7), random_band_limited(256, seed=8))
        traj = simulate_2v(init, const(2.5), 8.0, theta=constant_rate(2.5).theta)
        expected = traj["v_avg"][0] * np.exp(-2.5 * traj.times)
        assert np.max(np.abs(traj["v_avg"] - expected)) < 1e-8

    def test_scheme_cross_check(self):
        n = 256
        x = nodes(n)
        sigma = RelaxationProfile.from_grid(GridFunction(1.5 + 0.25 * np.sin(x)))
        init = MacroState2V(GridFunction(np.cos(x)), GridFunction(0.5 * np.sin(x)))
        dt = 2 * np.pi / n
        a = simulate_2v(init, sigma, 1.0, dt=dt, scheme="split", theta=1.0)
        b = simulate_2v(init, sigma, 1.0, dt=dt, scheme="rk4", theta=1.0)
        diff = np.sqrt(
            norm_sq(GridFunction(a.final.u.values - b.final.u.values))
            + norm_sq(GridFunction(a.final.v.values - b.final.v.values))
        )
        assert diff < 1e-4

    def test_entropy_monotone_under_admissible_pair(self):
        prof = RelaxationProfile.two_piece(1.0, 4.0)
        theta = theta_star(1.0, 4.0)
        for seed in (0, 1):
            init = MacroState2V(
                random_band_limited(256, seed=seed),
                random_band_limited(256, seed=100 + seed),
            )
            traj = simulate_2v(init, prof, 20.0, theta=theta)
            assert np.max(traj.entropy_increases()) < 1e-8

    def test_entropy_bounded_by_alpha_star_envelope(self):
        prof = RelaxationProfile.two_piece(1.0, 4.0)
        theta, alpha = theta_star(1.0, 4.0), alpha_star(1.0, 4.0)
        init = MacroState2V(random_band_limited(256, seed=9), random_band_limited(256, seed=10))
        traj = simulate_2v(init, prof, 20.0, theta=theta)
        envelope = traj["entropy"][0] * np.exp(-alpha * traj.times)
        assert np.all(traj["entropy"] <= envelope * (1.0 + 1e-8))

    def test_kinetic_prefactor_bound(self):
        for s in (1.0, 4.0):
            rep = constant_rate(s)
            for seed in range(20):
                fp = random_band_limited(256, seed=seed).values
                fm = random_band_limited(256, seed=500 + seed).values
                mac = MacroState2V(GridFunction(fp + fm), GridFunction(fp - fm))
                traj = simulate_2v(mac, const(s), 10.0, theta=rep.theta, record_every=8)
                f_inf = average(mac.u) / 2.0
                d0 = np.sqrt(norm_sq(GridFunction(fp - f_inf)) + norm_sq(GridFunction(fm - f_inf)))
                dist = np.sqrt((traj["norm_u_dev"] ** 2 + traj["norm_v"] ** 2) / 2.0)
                bound = rep.prefactor * d0 * np.exp(-rep.mu * traj.times)
                assert np.all(dist <= bound * (1.0 + 1e-9))

    def test_evolution_identity_residual(self):
        n = 128
        x = nodes(n)
        sigma = RelaxationProfile.from_grid(GridFunction(1.0 + 0.5 * np.sin(x)))
        init = MacroState2V(GridFunction(np.cos(x)), GridFunction(np.sin(x)))
        traj = simulate_2v(init, sigma, 4.0, dt=2 * np.pi / 512, scheme="rk4", theta=1.0)
        assert np.max(traj.evolution_residuals()) < 1e-4

    def test_split_requires_commensurate_dt(self):
        init = MacroState2V(GridFunction(np.zeros(64)), GridFunction(np.zeros(64)))
        with pytest.raises(ValidationError):
            simulate_2v(init, const(1.0), 1.0, dt=0.01, scheme="split", theta=1.0)

    @pytest.mark.parametrize("scheme", ["split", "rk4"])
    def test_step_longer_than_the_run_is_refused(self, scheme):
        # one step of 2 dx would overshoot t_final = dx by a whole step
        init = MacroState2V(GridFunction(np.zeros(64)), GridFunction(np.cos(nodes(64))))
        dx = 2 * np.pi / 64
        with pytest.raises(ValidationError, match=r"^dt = 0.19635 exceeds t_final = 0.0981748; lower --dt$"):
            simulate_2v(init, const(1.0), dx, dt=2 * dx, scheme=scheme, theta=1.0)

    @pytest.mark.parametrize(
        "sigma, n, record_every, t_named",
        [
            (TWO_PIECE, 64, 1, "46.5"),
            (TWO_PIECE, 64, 7, "49"),
            (TWO_PIECE, 64, 1000, "200"),
            (TWO_PIECE, 512, 1, "22.5"),
            ("const:1", 64, 1, "48.5"),
            ("const:1", 64, 7, "49"),
            ("const:1", 64, 1000, "200"),
            ("const:1", 512, 1, "23.5"),
        ],
        ids=[
            "matrix-1-46.5", "matrix-7-49", "matrix-1000-200", "horner-1-22.5",
            "modes-1-48.5", "modes-7-49", "modes-1000-200", "modes-512-1-23.5",
        ],
    )
    def test_blow_up_raises_at_the_first_record_after_it(self, sigma, n, record_every, t_named):
        # dt = 0.5 is far past RK4's spectral advection limit. At n = 64 the
        # cached step matrix steps the two-piece state, which first turns
        # non-finite at t = 46.5; n = 512 is over the matrix bound, so the
        # Horner stages step it. Constant sigma is stepped mode by mode
        init = MacroState2V(random_band_limited(n, seed=0), random_band_limited(n, seed=1))
        profile = RelaxationProfile.parse(sigma)
        with np.errstate(all="ignore"), pytest.raises(NumericalError, match=rf"t = {t_named}$"):
            simulate_2v(init, profile, 200.0, dt=0.5, scheme="rk4", theta=1.0, record_every=record_every)

    @pytest.mark.parametrize("sigma, t_named", [(TWO_PIECE, "46.5"), ("const:1", "48.5")])
    def test_blow_up_raises_no_numpy_warning(self, sigma, t_named):
        init = MacroState2V(random_band_limited(64, seed=0), random_band_limited(64, seed=1))
        profile = RelaxationProfile.parse(sigma)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match=rf"state detected at t = {t_named}$"):
                simulate_2v(init, profile, 200.0, dt=0.5, scheme="rk4", theta=1.0)

    @pytest.mark.parametrize(
        "sigma, record_every, t_named",
        [(TWO_PIECE, 1, "23.5"), (TWO_PIECE, 7, "24.5"), ("const:1", 1, "25.5"), ("const:1", 7, "28")],
    )
    def test_non_finite_diagnostic_of_a_finite_state_raises(self, sigma, record_every, t_named):
        # at T = 30 the state stays finite, but its entropy overflows first
        init = MacroState2V(random_band_limited(64, seed=0), random_band_limited(64, seed=1))
        profile = RelaxationProfile.parse(sigma)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match=rf"diagnostics at t = {t_named}$"):
                simulate_2v(
                    init, profile, 30.0, dt=0.5, scheme="rk4", theta=1.0, record_every=record_every
                )

    def test_complex_rejected(self):
        # a complex state cannot be built: the grid function rejects it
        with pytest.raises(ValidationError, match="must be real"):
            c = GridFunction(np.exp(1j * nodes(64)))
            simulate_2v(MacroState2V(GridFunction(c.values.real), c), const(1.0), 1.0, theta=1.0)

    def test_mismatched_grids_name_the_sizes(self):
        with pytest.raises(ValidationError, match="share one grid, got n = 64, 32"):
            MacroState2V(GridFunction(np.zeros(64)), GridFunction(np.zeros(32)))


class TestSimulate3V:
    def test_steady_state(self):
        c = GridFunction(np.full(64, 0.7))
        traj = simulate_3v(to_macro3(c, c, c), const(1.7), 3.0, theta=rate_3v(1.7, 1.7).theta)
        assert np.max(traj["norm_u2"]) < 1e-14
        assert np.max(traj["norm_u3"]) < 1e-14

    def test_mass_conservation(self):
        init = to_macro3(*(random_band_limited(128, seed=s) for s in (11, 12, 13)))
        traj = simulate_3v(init, RelaxationProfile.two_piece(1.0, 2.0), 8.0, theta=rate_3v(1.0, 2.0).theta)
        assert np.max(np.abs(traj["mass"] - traj["mass"][0])) < 1e-12

    def test_corollary_rate_observed(self):
        rep = rate_3v(1.0, 1.0)
        init = to_macro3(gf(lambda x: 1 + np.cos(x)), gf(np.sin), gf(lambda x: np.cos(2 * x)))
        traj = simulate_3v(init, const(1.0), 30.0, theta=rep.theta)
        assert np.max(traj.entropy_increases()) < 1e-8
        rate, _ = fit_decay_rate(traj.times, traj["entropy"])
        assert rate >= rep.rate * 0.98

    def test_convergence_to_equilibrium(self):
        init = to_macro3(gf(lambda x: 1 + np.cos(x)), gf(np.sin), gf(lambda x: np.cos(2 * x)))
        u_inf = average(init.u1)
        rep = rate_3v(1.0, 1.0)
        traj = simulate_3v(init, const(1.0), 40.0 / rep.rate, theta=rep.theta, record_every=64)
        assert norm(GridFunction(traj.final.u1.values - u_inf)) < 1e-6
        assert norm(traj.final.u2) < 1e-6
        assert norm(traj.final.u3) < 1e-6

    def test_schemes_agree(self):
        init = to_macro3(gf(lambda x: np.cos(x), 128), gf(np.sin, 128), GridFunction(np.zeros(128)))
        dt = 2 * np.pi / 128
        theta = rate_3v(1.5, 1.5).theta
        a = simulate_3v(init, const(1.5), 1.0, dt=dt, scheme="split", theta=theta)
        b = simulate_3v(init, const(1.5), 1.0, dt=dt, scheme="rk4", theta=theta)
        diff = max(
            norm(GridFunction(a.final.u1.values - b.final.u1.values)),
            norm(GridFunction(a.final.u2.values - b.final.u2.values)),
            norm(GridFunction(a.final.u3.values - b.final.u3.values)),
        )
        assert diff < 1e-3


def mode_step_in_x(velocities, sigma, dt, n, scheme, stride, f):
    """solver._mode_step started from the samples f, its advance returning samples; (advance, finish)."""
    modes = np.fft.rfft(f, axis=-1, norm="forward")
    advance, finish = solver._mode_step(velocities, sigma, dt, n, scheme, stride, modes)
    return (lambda k: np.fft.irfft(advance(k), n, axis=-1, norm="forward")), finish


@pytest.fixture
def no_steps(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("stepped")

    monkeypatch.setattr(solver, "_split_step", refuse)
    monkeypatch.setattr(solver, "_rk4_step", refuse)
    monkeypatch.setattr(solver, "_mode_step", refuse)


class TestCheckerboardRule:
    """Runs whose scheme conserves the checkerboard of S = sum_i f_i are refused.

    Relaxation keeps S pointwise. RK4's spectral derivative is zero at
    Nyquist, and a split step multiplies row i's share of
    L = sum_j (-1)^j S_j by (-1)^(c_i m). So |L| is conserved under RK4, and
    under the split scheme when every c_i m has the same parity: always for
    (+1, -1), and for (+1, 0, -1) only when m is even.
    """

    N = 64
    ALTERNATING = (-1.0) ** np.arange(N)

    def checkerboard(self, f):
        return f.sum(axis=0) @ self.ALTERNATING / self.N

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("scheme", ["split", "rk4"])
    @pytest.mark.parametrize("velocities", [(1, -1), (1, 0, -1)], ids=["2v", "3v"])
    def test_conserved_exactly_when_the_rule_says(self, velocities, scheme, m):
        n, dx = self.N, 2 * np.pi / self.N
        f = np.vstack([random_band_limited(n, seed=s).values for s in range(len(velocities))])
        f[0] += self.ALTERNATING
        sig = RelaxationProfile.two_piece(1.0, 4.0).sample(n)
        # m scales the step, which RK4's rule does not depend on
        dt = m * dx if scheme == "split" else m * dx / 4
        if scheme == "split":
            stepper = solver._split_step(velocities, sig, dt, n, f)
        else:
            stepper = solver._rk4_step(velocities, sig, dt, n, 1, f)
        # constant sigma, stepped mode by mode, follows the same rule
        for advance, finish in (stepper, mode_step_in_x(velocities, 4.0, dt, n, scheme, 100, f)):
            after = abs(self.checkerboard(finish(advance(100).copy())))
            if scheme == "rk4" or len(velocities) == 2 or m % 2 == 0:
                assert after == pytest.approx(1.0, rel=1e-12)
            else:  # the rows of c_i = 0 and c_i = +-1 flip apart and relaxation damps their difference
                assert after < 1e-2

    @pytest.mark.parametrize(
        "system, scheme, cells, named",
        [
            ("2v", "split", 1, "scheme split with shift m = 1 cells"),
            ("2v", "rk4", None, "scheme rk4"),
            ("3v", "split", 2, "scheme split with shift m = 2 cells"),
            ("3v", "rk4", None, "scheme rk4"),
        ],
        ids=["2v-split", "2v-rk4", "3v-split-even", "3v-rk4"],
    )
    def test_library_runs_are_refused_before_any_step(self, no_steps, system, scheme, cells, named):
        n = self.N
        board = GridFunction(0.5 * self.ALTERNATING + random_band_limited(n, seed=1).values)
        dt = None if cells is None else cells * 2 * np.pi / n
        if system == "2v":
            init, simulate = MacroState2V(board, random_band_limited(n, seed=2)), simulate_2v
        else:
            init, simulate = to_macro3(board, GridFunction(np.zeros(n)), GridFunction(np.zeros(n))), simulate_3v
        match = rf"sum_j \(-1\)\^j S_j / n = 0.5, S = sum_i f_i; {named} conserves \|L\|"
        with pytest.raises(ValidationError, match=match):
            simulate(init, const(1.0), 30.0, dt=dt, scheme=scheme, theta=1.0)

    def test_rounding_is_measured_against_the_kinetic_values(self):
        # S = f_+ + f_- rounds relative to v, not to u; against max |S| the
        # rounding of this L would read 1.5e-12 and the run would be refused
        u0 = GridFunction(1e-7 * random_band_limited(256, seed=1, zero_mean=True).values)
        traj = simulate_2v(MacroState2V(u0, random_band_limited(256, seed=2)), const(1.0), 1.0, theta=1.0)
        assert np.isfinite(traj["entropy"]).all() and traj.times.size == 42


@pytest.mark.parametrize("theta", [2.0, -2.0, 3.0, np.nan])
def test_a_twist_outside_the_norm_range_is_refused_before_any_step(no_steps, theta):
    # E_theta is a norm only for |theta| < 2
    init = MacroState2V(random_band_limited(64, seed=1, zero_mean=True), random_band_limited(64, seed=2))
    with pytest.raises(ValidationError, match=r"a norm only for \|theta\| < 2"):
        simulate_2v(init, const(1.0), 5.0, theta=theta)
    with pytest.raises(ValidationError, match=r"a norm only for \|theta\| < 2"):
        simulate_3v(to_macro3(init.u, init.v, init.v), const(1.0), 5.0, theta=theta)


class TestStrangSpectrum:
    """The split scheme's own decay rate, from the eigenvalues of its dense step.

    One Strang step of the 2v split scheme is a linear map of the (2, n)
    kinetic array, built here column by column from the program's stepper
    (advance(1), then finish) on unit states. |z| = 1 belongs to the mass and
    to the checkerboard, which the scheme conserves; the slowest other
    eigenvalue gives the rate -ln|z|/dt. It converges at second order, so
    Richardson's (4 r_256 - r_128)/3 is the continuum's L2 rate, half the
    optimal entropy rate. Measured: 7.8e-8, 4.0e-7 and 1.3e-7 off.
    """

    @staticmethod
    def scheme_rate(profile, n):
        sig, dt = profile.sample(n), 2 * np.pi / n
        step = np.empty((2 * n, 2 * n))
        for j in range(2 * n):
            unit = np.zeros((2, n))
            unit.flat[j] = 1.0
            advance, finish = solver._split_step((1, -1), sig, dt, n, unit)
            step[:, j] = finish(advance(1).copy()).ravel()
        modulus = np.abs(np.linalg.eigvals(step))
        return -np.log(modulus[modulus < 1.0 - 1e-9].max()) / dt

    @pytest.mark.parametrize("pair", [(1.0, 4.0), (1.34, 5.46), (2.93, 0.402)])
    def test_richardson_rate_is_half_the_optimal_rate(self, pair):
        profile = RelaxationProfile.two_piece(*pair)
        coarse, fine = self.scheme_rate(profile, 128), self.scheme_rate(profile, 256)
        problem = rescale_sigma(profile)
        optimal = optimal_rate(problem, telegrapher_gap(problem))
        assert abs((4.0 * fine - coarse) / 3.0 - optimal / 2.0) < 1e-5


class TestRecordPass:
    """Every recorded column against the GridFunction reference functions.

    The state at record k is the final state of the same run, with the same
    record_every, cut after k records, which takes exactly the same arithmetic.
    """

    PROFILE = RelaxationProfile.two_piece(1.0, 4.0)

    @staticmethod
    def reference_2v(state, theta, sigma):
        u_avg = average(state.u)
        udev = GridFunction(state.u.values - u_avg)
        return {
            "entropy": entropy_2v(udev, state.v, theta),
            "norm_u_dev": norm(udev),
            "norm_v": norm(state.v),
            "v_avg": average(state.v),
            "mass": u_avg,
            "rhs": entropy_evolution_rhs(state.u, state.v, sigma, theta),
        }

    @staticmethod
    def reference_3v(state, theta, sigma):
        u1_avg = average(state.u1)
        u1dev = GridFunction(state.u1.values - u1_avg)
        return {
            "entropy": entropy_3v(u1dev, state.u2, state.u3, theta),
            "norm_u1_dev": norm(u1dev),
            "norm_u2": norm(state.u2),
            "norm_u3": norm(state.u3),
            "u2_avg": average(state.u2),
            "mass": u1_avg,
        }

    @pytest.mark.parametrize("scheme", ["split", "rk4"])
    @pytest.mark.parametrize("system", ["2v", "3v"])
    def test_columns_match_reference_functions(self, system, scheme):
        n, steps = 64, 6
        simulate, init, reference = self.setup_run(system, n)
        dt = 2 * np.pi / n
        traj = simulate(init, self.PROFILE, steps * dt, dt=dt, scheme=scheme, theta=0.9)
        assert len(traj.times) == steps + 1
        for k in range(steps + 1):
            state = init if k == 0 else simulate(
                init, self.PROFILE, k * dt, dt=dt, scheme=scheme, theta=0.9
            ).final
            expected = reference(state, 0.9, self.PROFILE)
            assert list(expected) == list(traj.columns)
            for name, value in expected.items():
                assert traj[name][k] == pytest.approx(value, rel=1e-12, abs=0.0), (k, name)

    @staticmethod
    def setup_run(system, n=64):
        fields = [random_band_limited(n, seed=s) for s in (31, 32, 33)]
        if system == "2v":
            return simulate_2v, MacroState2V(*fields[:2]), TestRecordPass.reference_2v
        return simulate_3v, to_macro3(*fields), TestRecordPass.reference_3v

    @pytest.mark.parametrize("record_every", [1, 3])
    @pytest.mark.parametrize("scheme", ["split", "rk4"])
    @pytest.mark.parametrize("system", ["2v", "3v"])
    def test_columns_across_block_edges(self, system, scheme, record_every):
        # 2B + 5 records after t0 fill two blocks and part of a third; with
        # record_every = 3 the last record falls one step after the one before.
        # Each reference state comes from a run with the same record_every:
        # RK4 steps a record interval by one cached matrix power, which rounds
        # differently from single steps. At this dt, twice RK4's stable step,
        # the state grows to 1e43 (3v) and 7e57 (2v) by the last record; the
        # two roundings' entropies and norms differ there by up to 2e-13
        # relative, and their mass and flux averages, rounding noise at that
        # scale, by up to 13 times their value
        n, block = 64, solver._BLOCK_RECORDS
        assert 3 * n * 8 * block <= solver._STAGE_BYTES  # the byte cap leaves B alone here
        simulate, init, reference = self.setup_run(system, n)
        dt = 2 * np.pi / n
        records = 2 * block + 5
        steps = records if record_every == 1 else record_every * (records - 1) + 1
        traj = simulate(
            init, self.PROFILE, steps * dt, dt=dt, scheme=scheme, theta=0.9,
            record_every=record_every,
        )
        record_steps = [0, *range(record_every, steps, record_every), steps]
        assert len(traj.times) == len(record_steps) == records + 1
        edges = [0, 1, block, block + 1, 2 * block, 2 * block + 1, records]
        for k in edges:
            cut = record_steps[k]
            state = init if cut == 0 else simulate(
                init, self.PROFILE, cut * dt, dt=dt, scheme=scheme, theta=0.9,
                record_every=record_every,
            ).final
            assert traj.times[k] == pytest.approx(cut * dt, rel=1e-14)
            for name, value in reference(state, 0.9, self.PROFILE).items():
                assert traj[name][k] == pytest.approx(value, rel=1e-12, abs=0.0), (k, name)

    @pytest.mark.parametrize("scheme", ["split", "rk4"])
    @pytest.mark.parametrize("system", ["2v", "3v"])
    def test_one_record_blocks_match_default(self, system, scheme, monkeypatch):
        simulate, init, _ = self.setup_run(system)
        dt = 2 * np.pi / 64
        def run():
            return simulate(
                init, self.PROFILE, 140 * dt, dt=dt, scheme=scheme, theta=0.9, record_every=2
            )

        default = run()  # 70 records: a full block of 64 and a part block
        monkeypatch.setattr(solver, "_STAGE_BYTES", 1)
        single = run()
        for name in default.columns:
            assert_allclose(single[name], default[name], rtol=1e-13, atol=0.0, err_msg=name)


def oracle_run(system, profile, steps, dt, scheme, n):
    """Run one system from seeded data; return (f0, macro, velocities, traj, got, first).

    f0 is the initial kinetic array, got the final macroscopic rows and first
    the reference record columns of the initial state.
    """
    fields = [random_band_limited(n, seed=s) for s in (41, 42, 43)]
    if system == "2v":
        system, init = solver._SYSTEM_2V, MacroState2V(*fields[:2])
        macro0 = np.vstack([init.u.values, init.v.values])
        traj = simulate_2v(init, profile, steps * dt, dt=dt, scheme=scheme, theta=0.9)
        got = np.vstack([traj.final.u.values, traj.final.v.values])
        first = TestRecordPass.reference_2v(init, 0.9, profile)
    else:
        system, init = solver._SYSTEM_3V, to_macro3(*fields)
        macro0 = np.vstack([init.u1.values, init.u2.values, init.u3.values])
        traj = simulate_3v(init, profile, steps * dt, dt=dt, scheme=scheme, theta=0.9)
        got = np.vstack([traj.final.u1.values, traj.final.u2.values, traj.final.u3.values])
        first = TestRecordPass.reference_3v(init, 0.9, profile)
    return system.kinetic @ macro0, system.macro, system.velocities, traj, got, first


class TestSplitStepOracle:
    """The merged-relaxation stepper against Strang's R_half T R_half, written out."""

    PROFILE = RelaxationProfile.parse("pc:0.5@pi,12@2pi")

    @staticmethod
    def strang(f, sig, dt, velocities, cells, steps):
        half = np.exp(-sig * dt / 2.0)

        def relax(f):
            mean = f.mean(axis=0)
            return mean + half * (f - mean)

        for _ in range(steps):
            f = relax(f)  # dt = cells*dx: each velocity moves c*cells cells per step
            f = np.array([np.roll(row, c * cells) for row, c in zip(f, velocities)])
            f = relax(f)
        return f

    @pytest.mark.parametrize(
        "system, cells",
        [("2v", 1), ("3v", 1), ("2v", 3), ("3v", 3)],
        ids=["2v", "3v", "2v-3cells", "3v-3cells"],
    )
    def test_final_state_matches_strang(self, system, cells):
        n, steps = 128, 200
        dt = cells * 2 * np.pi / n
        f0, macro, velocities, traj, got, first = oracle_run(system, self.PROFILE, steps, dt, "split", n)
        want = macro @ self.strang(f0, self.PROFILE.sample(n), dt, velocities, cells, steps)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
        # the t0 row is the initial state's own, not that of a relaxed copy
        for name, value in first.items():
            assert traj[name][0] == pytest.approx(value, rel=1e-12, abs=0.0), name


def rowwise_split_step(velocities, sig, dt, n):
    """The split step written row by row, with no moving frames; returns advance(g, k).

    Each step forms w S, scales g by e in place and writes e g_i + w S into
    row i of a spare buffer, shifted by c_i*m cells, as one add plus one for
    the wrap. The first step uses the half-step factors, every later one the
    full-step ones. advance returns the buffer the last step wrote.
    """
    cells = round(dt / (2 * np.pi / n))
    count = len(velocities)
    moves = []
    for i, c in enumerate(velocities):
        s = (c * cells) % n
        moves.append((i, slice(0, n - s), slice(s, n)))
        if s:
            moves.append((i, slice(n - s, n), slice(0, s)))
    half, full = np.exp(-sig * dt / 2.0), np.exp(-sig * dt)
    factors, full_factors = (half, (1.0 - half) / count), (full, (1.0 - full) / count)
    spare, shared = np.empty((count, n)), np.empty(n)

    def advance(g, k):
        nonlocal spare, shared, factors
        for _ in range(k):
            decay, weight = factors
            factors = full_factors
            np.add(g[0], g[1], out=shared)
            for row in g[2:]:
                shared += row
            shared *= weight
            for row in g:
                row *= decay
            for i, src, dst in moves:
                np.add(g[i, src], shared[src], out=spare[i, dst])
            g, spare = spare, g
        return g

    return advance


class TestMovingFrameOracle:
    """The moving-frame split stepper against the row-wise one, bit for bit, at every record.

    At n = 256 a shift of m cells folds to 1, 3, 128, -127, -1 and 0 cells,
    so the frames' blocks are 64, 21, 1, 1, 64 steps long, and 64 with no
    halo. 333 steps is a multiple of none of them but 1, so block boundaries
    fall inside record intervals. The first step of both is the half-step
    one.
    """

    PROFILE = RelaxationProfile.parse("pc:0.5@pi,12@2pi")

    @pytest.mark.parametrize("stride", [1, 7, 64, 200])
    @pytest.mark.parametrize("cells", [1, 3, 128, 129, 255, 256], ids=["1", "3", "n/2", "n/2+1", "n-1", "n"])
    @pytest.mark.parametrize("velocities", [(1, -1), (1, 0, -1)], ids=["2v", "3v"])
    def test_every_record_is_bit_identical(self, velocities, cells, stride):
        n, steps = 256, 333
        sig, dt = self.PROFILE.sample(n), cells * 2 * np.pi / n
        f = np.random.default_rng(cells).standard_normal((len(velocities), n))
        want = rowwise_split_step(velocities, sig, dt, n)
        advance, finish = solver._split_step(velocities, sig, dt, n, f)
        g, done = f.copy(), 0
        for step in [*range(stride, steps, stride), steps]:
            g, got = want(g, step - done), advance(step - done)
            assert got.shape == g.shape
            assert np.array_equal(got, g), step
            assert np.array_equal(finish(got.copy()), finish(g.copy())), step
            done = step


class TestRK4Oracle:
    """Both RK4 paths, step matrix and Horner stages, against the four stages k1..k4 written out."""

    PROFILE = RelaxationProfile.parse("pc:0.5@pi,12@2pi")

    @staticmethod
    def rk4(f, sig, dt, velocities, steps):
        def rhs(f):
            transport = [-c * derivative(GridFunction(row)).values for row, c in zip(f, velocities)]
            return np.array(transport) - sig * (f - f.mean(axis=0))

        for _ in range(steps):
            k1 = rhs(f)
            k2 = rhs(f + dt / 2 * k1)
            k3 = rhs(f + dt / 2 * k2)
            k4 = rhs(f + dt * k3)
            f = f + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        return f

    @pytest.mark.parametrize(
        "system, n",
        [("2v", 128), ("3v", 128), ("2v", 512), ("3v", 512)],
        ids=["2v", "3v", "2v-horner", "3v-horner"],
    )
    def test_final_state_matches_four_stages(self, system, n):
        steps = 50
        dt = np.pi / n  # the RK4 default, dx/2
        f0, macro, velocities, traj, got, _ = oracle_run(system, self.PROFILE, steps, dt, "rk4", n)
        # n = 128 steps by the cached step matrix, n = 512 by the Horner stages
        cells = len(velocities) * n
        assert (cells * cells * 8 <= solver._STEP_MATRIX_BYTES) == (n == 128)
        assert traj.times[-1] == pytest.approx(steps * dt, rel=1e-12)
        want = macro @ self.rk4(f0, self.PROFILE.sample(n), dt, velocities, steps)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    @staticmethod
    def stride_run(system, n, sigma, record_every):
        fields = [random_band_limited(n, seed=s) for s in (41, 42, 43)]
        simulate, init = (
            (simulate_2v, MacroState2V(*fields[:2])) if system == "2v" else (simulate_3v, to_macro3(*fields))
        )
        return simulate(init, sigma, 20.0, scheme="rk4", theta=0.9, record_every=record_every)

    @pytest.mark.parametrize("sigma", ["const:1", "const:5", "pc:1.27@pi,1.49@2pi", "pc:1@pi,4@2pi"])
    @pytest.mark.parametrize("system, n", [("2v", 256), ("3v", 160)])
    def test_record_stride_matches_single_steps(self, system, n, sigma):
        # a record interval of r steps is one product with M^r, which rounds
        # differently from r single steps. At T = 20 (1630 steps at n = 256,
        # 1019 at n = 160, both leaving a remainder for stride 64 and 7) each
        # column measured within 1.05e-14 of its column maximum and the mass
        # within 4.2e-13 relative; the bounds allow about five times that
        profile = RelaxationProfile.parse(sigma)
        one = self.stride_run(system, n, profile, 1)
        steps = len(one.times) - 1
        cells = int(system[0]) * n
        assert cells * cells * 8 <= solver._STEP_MATRIX_BYTES  # the cached power steps it
        for record_every in (64, 7):
            assert steps % record_every
            traj = self.stride_run(system, n, profile, record_every)
            at = [*range(0, steps, record_every), steps]
            assert_allclose(traj.times, one.times[at], rtol=1e-14, atol=0.0)
            for name, want in one.columns.items():
                got, want = traj[name], want[at]
                if name == "mass":
                    assert np.max(np.abs(got - want) / np.abs(want)) < 2e-12, (record_every, name)
                else:
                    assert np.max(np.abs(got - want)) < 5e-14 * np.max(np.abs(want)), (record_every, name)

    def test_stride_past_the_run_is_the_whole_run(self):
        # a stride beyond the step count builds M^steps, not M^record_every
        init = MacroState2V(random_band_limited(64, seed=0), random_band_limited(64, seed=1))
        runs = [
            simulate_2v(init, const(1.0), 5.0, scheme="rk4", theta=1.0, record_every=r) for r in (10**9, 102)
        ]
        assert len(runs[1].times) == 2  # 102 steps: t0 and the end
        for name in runs[1].columns:
            assert np.array_equal(runs[0][name], runs[1][name]), name
        assert np.array_equal(runs[0].times, runs[1].times)

    def test_overflowing_power_falls_back_to_single_steps(self):
        # at dt = 0.5, far past RK4's stability limit, M^400 overflows, and a
        # product with it would turn even the zero state into NaN (0 * inf);
        # single steps keep it zero. Constant sigma runs the per-mode power,
        # two-piece sigma the step matrix's
        zero = MacroState2V(GridFunction(np.zeros(64)), GridFunction(np.zeros(64)))
        for sigma in (const(1.0), RelaxationProfile.two_piece(1.0, 2.0)):
            traj = simulate_2v(zero, sigma, 200.0, dt=0.5, scheme="rk4", theta=1.0, record_every=1000)
            assert traj.times.tolist() == [0.0, 200.0]
            for name, column in traj.columns.items():
                assert np.array_equal(column, [0.0, 0.0]), name

    @pytest.mark.parametrize("stride", [1, 7, 64, 1000])
    def test_power_build_holds_at_most_one_extra_matrix(self, stride):
        # the power, one spare for the squarings and the Horner temporaries
        # of one chunk (0.8 of a matrix at n = 256) while building; the power
        # alone afterwards. Measured peaks: 1.80 matrices at stride 1, 2.02 at
        # 64, 2.74 at 7 and 1000
        n = 256
        matrix_bytes = (2 * n) ** 2 * 8
        sig = self.PROFILE.sample(n)
        tracemalloc.start()
        try:
            advance, _ = solver._rk4_step((1, -1), sig, np.pi / n, n, stride, np.zeros((2, n)))
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held < 1.1 * matrix_bytes
        assert peak < (2 if stride == 1 else 3) * matrix_bytes


class TestModeStepOracle:
    """The per-mode stepper against the moving-frame and RK4 steppers on constant sigma.

    333 steps leave a remainder for every stride but the one past the run,
    which the stepper takes as one product with its own power. The per-mode
    products round differently from the steppers in x; the bounds allow
    about five times the measured differences.
    """

    SIGMAS = (0.5, 12.0)
    STRIDES = (16, 64, 200, 400)

    @staticmethod
    def records(steps, stride):
        return [*range(stride, steps, stride), steps]

    @pytest.mark.parametrize("stride", STRIDES)
    @pytest.mark.parametrize("cells", [1, 3, 128, 129, 255, 256], ids=["1", "3", "n/2", "n/2+1", "n-1", "n"])
    @pytest.mark.parametrize("velocities", [(1, -1), (1, 0, -1)], ids=["2v", "3v"])
    def test_split_records_match_the_moving_frames(self, velocities, cells, stride):
        # measured: within 8.3e-14 of the largest kinetic value
        n, steps = 256, 333
        dt = cells * 2 * np.pi / n
        f = np.random.default_rng(cells).standard_normal((len(velocities), n))
        for sigma in self.SIGMAS:
            advance, finish = mode_step_in_x(velocities, sigma, dt, n, "split", stride, f)
            frames, frames_finish = solver._split_step(velocities, np.full(n, sigma), dt, n, f)
            done = 0
            for step in self.records(steps, stride):
                got = finish(advance(step - done))
                want = frames_finish(frames(step - done).copy())
                assert np.max(np.abs(got - want)) < 4e-13 * np.max(np.abs(want)), (sigma, step)
                done = step

    @pytest.mark.parametrize("stride", STRIDES)
    @pytest.mark.parametrize("n", [128, 512], ids=["matrix", "horner"])
    @pytest.mark.parametrize("velocities", [(1, -1), (1, 0, -1)], ids=["2v", "3v"])
    def test_rk4_records_match_single_steps(self, velocities, n, stride):
        # measured: within 3e-14 of the largest kinetic value
        steps, dt = 333, np.pi / n
        f = np.random.default_rng(n).standard_normal((len(velocities), n))
        for sigma in self.SIGMAS:
            advance, _ = mode_step_in_x(velocities, sigma, dt, n, "rk4", stride, f)
            single, _ = solver._rk4_step(velocities, np.full(n, sigma), dt, n, 1, f)
            done = 0
            for step in self.records(steps, stride):
                got, want = advance(step - done), single(step - done)
                assert np.max(np.abs(got - want)) < 2e-13 * np.max(np.abs(want)), (sigma, step)
                done = step

    @pytest.mark.parametrize("scheme, n", [("split", 256), ("rk4", 128)])
    @pytest.mark.parametrize("system", ["2v", "3v"])
    def test_runs_match_the_steppers_in_x(self, system, scheme, n, monkeypatch):
        # At T = 30 the entropy falls by up to 16 orders, so its difference is
        # bounded against sqrt(E(t) E(0)): a state that differs by rounding,
        # eps max |f|, moves E by about eps sqrt(E(t) E(0)). Measured over
        # strides 1 to 10**9: columns within 3.3e-14 of their maximum, the mass
        # within 3.9e-13 relative and the entropy within 1.4e-14 sqrt(E(t) E(0))
        fields = [random_band_limited(n, seed=s) for s in (41, 42, 43)]
        simulate, init = (
            (simulate_2v, MacroState2V(*fields[:2])) if system == "2v" else (simulate_3v, to_macro3(*fields))
        )
        for sigma in (const(1.0), const(5.0)):
            for record_every in (1, 7, 16, 64, 200, 10**9):
                got = simulate(init, sigma, 30.0, scheme=scheme, theta=0.9, record_every=record_every)
                with monkeypatch.context() as m:  # a profile taken as non-constant runs in x
                    m.setattr(RelaxationProfile, "is_constant", property(lambda self: False))
                    want = simulate(init, sigma, 30.0, scheme=scheme, theta=0.9, record_every=record_every)
                assert np.array_equal(got.times, want.times)
                for name, column in want.columns.items():
                    if name == "mass":
                        assert np.max(np.abs(got[name] - column) / np.abs(column)) < 2e-12, name
                    else:
                        assert np.max(np.abs(got[name] - column)) < 2e-13 * np.max(np.abs(column)), name
                e = want["entropy"]
                assert np.max(np.abs(got["entropy"] - e) / np.sqrt(e * e[0])) < 1e-13

    @pytest.mark.parametrize("scheme", ["split", "rk4"])
    @pytest.mark.parametrize("system", ["2v", "3v"])
    def test_a_constant_run_makes_one_irfft(self, system, scheme, monkeypatch):
        # its records come from the carried modes, in any number of blocks,
        # so its one irfft makes the final state
        n = 64
        dt = 2 * np.pi / n if scheme == "split" else np.pi / n
        simulate, init, _ = TestRecordPass.setup_run(system, n)
        irfft, calls = np.fft.irfft, []
        monkeypatch.setattr(np.fft, "irfft", lambda *args, **kwargs: calls.append(1) or irfft(*args, **kwargs))
        for record_every in (1, 7, 10**9):  # 201, 30 and 2 records
            calls.clear()
            traj = simulate(init, const(1.0), 200 * dt, dt=dt, scheme=scheme, theta=0.9, record_every=record_every)
            assert len(calls) == 1, record_every
            assert len(traj.times) == 1 + -(-200 // min(record_every, 200))

    def test_the_last_interval_is_one_product_with_its_own_power(self, monkeypatch):
        # 20 steps at stride 7: two intervals of 7, then one of 6
        power, built = solver._symbol_power, []
        monkeypatch.setattr(solver, "_symbol_power", lambda symbol, k: built.append(k) or power(symbol, k))
        simulate, init, _ = TestRecordPass.setup_run("2v")
        dt = 2 * np.pi / 64
        simulate(init, const(1.0), 20 * dt, dt=dt, theta=0.9, record_every=7)
        assert built == [7, 6]

    @pytest.mark.parametrize("scheme", ["split", "rk4"])
    def test_a_two_piece_run_never_steps_modes(self, scheme, monkeypatch):
        def refuse(*args):
            raise AssertionError("stepped mode by mode")

        monkeypatch.setattr(solver, "_mode_step", refuse)
        simulate, init, _ = TestRecordPass.setup_run("2v")
        simulate(init, RelaxationProfile.two_piece(1.0, 4.0), 1.0, scheme=scheme, theta=0.9)

    @pytest.mark.parametrize("stride", [64, 1000])
    @pytest.mark.parametrize("scheme", ["split", "rk4"])
    def test_power_build_holds_no_temporary_past_the_symbol_size(self, scheme, stride):
        # one (V, V, n/2 + 1) stack of symbols is a matrix here. Held after
        # the last record: the symbol, the last interval's power and the
        # carried modes (2.34 matrices at three velocities). Peak, while the
        # last interval's power is built: the symbol, that power, its spare,
        # the carried modes and einsum's buffer (3.68). The first build peaks
        # at 3.35 (split) and 3.74 (RK4, whose symbol build holds the
        # generator too). Keeping the stride's power through the last build
        # would add one matrix, and broadcasting a product over
        # (V, V, V, n/2 + 1) V matrices
        n, velocities = 4096, (1, 0, -1)
        matrix_bytes = len(velocities) ** 2 * (n // 2 + 1) * 16
        dt = 2 * np.pi / n if scheme == "split" else np.pi / n
        modes = np.zeros((len(velocities), n // 2 + 1), dtype=complex)
        tracemalloc.start()
        try:
            advance, _ = solver._mode_step(velocities, 1.0, dt, n, scheme, stride, modes)
            advance(stride)
            record = advance(stride - 1)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert record.shape == modes.shape
        assert held < 3 * matrix_bytes
        assert peak < 4 * matrix_bytes


class TestParsevalRecordPass:
    """The record pass on rfft modes against the record pass on samples."""

    @pytest.mark.parametrize("n", [8, 64, 256, 4096])
    @pytest.mark.parametrize("system", ["2v", "3v"])
    def test_columns_match_the_samples(self, system, n):
        # seeded blocks with every mode present, Nyquist and mean included.
        # irfft ignores the imaginary parts of modes 0 and n/2, and so must
        # the record. Measured: every column within 3.5e-15 of its maximum
        count = int(system[0])
        rng = np.random.default_rng(n + count)
        u = rng.standard_normal((5, count, n))
        modes = np.fft.rfft(u, axis=-1, norm="forward")
        modes[..., [0, -1]] += 1j * rng.standard_normal((5, count, 2))
        sigma = 1.7
        got = solver._diagnostics(modes, sigma, 0.9, entropy.MODES)
        want = solver._diagnostics(u, np.full(n, sigma), 0.9, entropy.SAMPLES)
        columns = (solver._SYSTEM_2V if count == 2 else solver._SYSTEM_3V).columns
        assert len(got) == len(want) == len(columns)
        for name, g, w in zip(columns, got, want):
            assert np.max(np.abs(g - w)) <= 1e-13 * np.max(np.abs(w)), name

    @pytest.mark.parametrize("scheme", ["split", "rk4"])
    @pytest.mark.parametrize("system", ["2v", "3v"])
    def test_first_record_and_final_state_match_reference_functions(self, system, scheme):
        # 20 steps at stride 7 end with a shorter interval
        n = 64
        dt = 2 * np.pi / n if scheme == "split" else np.pi / n
        simulate, init, reference = TestRecordPass.setup_run(system, n)
        traj = simulate(init, const(1.5), 20 * dt, dt=dt, scheme=scheme, theta=0.9, record_every=7)
        assert len(traj.times) == 4
        for k, state in ((0, init), (-1, traj.final)):
            for name, value in reference(state, 0.9, const(1.5)).items():
                assert traj[name][k] == pytest.approx(value, rel=1e-12, abs=0.0), (k, name)


class TestFitting:
    def test_pure_exponential(self):
        t = np.linspace(0.0, 20.0, 400)
        rate, r2 = fit_decay_rate(t, 3.0 * np.exp(-2.0 * t), window=(0.5, 10.0))
        assert rate == pytest.approx(2.0, abs=1e-10)
        assert r2 == pytest.approx(1.0)

    def test_constant_series(self):
        t = np.linspace(0.0, 10.0, 100)
        rate, _ = fit_decay_rate(t, np.full_like(t, 2.5), window=(1.0, 9.0))
        assert rate == pytest.approx(0.0, abs=1e-12)

    def test_polynomial_correction_slows_pure_fit(self):
        t = np.linspace(0.0, 20.0, 800)
        vals = (1.0 + t) * np.exp(-t)
        rate, _ = fit_decay_rate(t, vals, window=(10.0, 20.0))
        assert 0.9 < rate < 1.0

    def test_envelope_fit_recovers_unit_rate(self):
        t = np.linspace(0.0, 20.0, 800)
        vals = (1.0 + t) * np.exp(-t)
        rate, r2 = fit_envelope_rate(t, vals, window=(10.0, 20.0))
        assert rate == pytest.approx(1.0, abs=1e-12)
        assert r2 == pytest.approx(1.0)

    def test_floor_crossing_errors_out(self):
        t = np.linspace(0.0, 50.0, 200)
        vals = np.exp(-3.0 * t)  # deep underflow past t ~ 10
        match = r"^decay fit: the series falls below the floor 1e-12 at t = 9.29648, before the window \[40, 50\]"
        with pytest.raises(NumericalError, match=match):
            fit_decay_rate(t, vals, window=(40.0, 50.0))

    def test_sparse_window_names_the_count(self):
        t = np.linspace(0.0, 10.0, 11)
        match = r"^decay fit: only 7 usable points in the window \[2.5, 9\], 10 needed$"
        with pytest.raises(NumericalError, match=match):
            fit_decay_rate(t, np.exp(-t))

    def test_defective_sigma_two_envelope(self):
        # sigma = 2, first-mode data: the pair norm follows ~ (1+t)e^{-t};
        # the envelope fit should sit close to 1, the pure fit below it
        init = MacroState2V(GridFunction(np.zeros(256)), gf(np.cos))
        traj = simulate_2v(init, const(2.0), 25.0, theta=constant_rate(2.0, eps=0.1).theta)
        vals = traj.pair_norm()
        env_rate, _ = fit_envelope_rate(traj.times, vals, window=(8.0, 22.0))
        pure_rate, _ = fit_decay_rate(traj.times, vals, window=(8.0, 22.0))
        assert env_rate == pytest.approx(1.0, abs=0.02)
        assert 0.85 < pure_rate < 1.0
