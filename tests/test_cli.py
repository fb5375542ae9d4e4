"""CLI harness: subcommands, outputs, determinism, exit codes."""

import os
import resource
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from conftest import write_field

from gtlab import cli, solver
from gtlab.cli import build_parser, main
from gtlab.errors import GridMismatchError, ValidationError
from gtlab.profiles import RelaxationProfile
from gtlab.rates import constant_rate
from gtlab.telegrapher import rescale_sigma
from gtlab.torus import GridFunction, nodes, random_band_limited


def run(*argv) -> int:
    return main(list(argv))


def fine_profile(n: int) -> str:
    """A pc: spec of n equal pieces, with seeded values in [0.5, 2]."""
    values = np.random.default_rng(n).uniform(0.5, 2.0, n).tolist()
    ends = [repr(2.0 * np.pi * (j + 1) / n) for j in range(n - 1)] + ["2pi"]
    return "pc:" + ",".join(f"{v!r}@{end}" for v, end in zip(values, ends))


class TestSigmaParsing:
    def test_const(self):
        p = RelaxationProfile.parse("const:5")
        assert p.is_constant and p.sigma_min == 5.0

    def test_piecewise(self):
        p = RelaxationProfile.parse("pc:1@pi,4@2pi")
        assert p.pieces == ((np.pi, 1.0), (2 * np.pi, 4.0))
        assert rescale_sigma(p).pieces == ((0.5, np.pi), (0.5, 4.0 * np.pi))
        assert p.sigma_min == 1.0 and p.sigma_max == 4.0

    def test_piecewise_numeric_breaks(self):
        p = RelaxationProfile.parse("pc:2@3.14159265358979,3@2pi")
        assert len(p.pieces) == 2

    def test_file(self, tmp_path):
        path = tmp_path / "sigma.csv"
        write_field(path, np.full(32, 2.0))
        p = RelaxationProfile.parse(f"file:{path}")
        assert p.sigma_min == 2.0

    def test_left_limit_at_jumps(self):
        p = RelaxationProfile.parse("pc:1@pi,4@2pi")
        samples = p.sample(8)
        assert samples[0] == 4.0  # node 0 == 2pi belongs to the second piece
        assert samples[4] == 1.0  # node pi keeps the left-limit value

    def test_bad_spec(self):
        with pytest.raises(Exception):
            RelaxationProfile.parse("nope:1")

    def test_constant_is_one_piece(self):
        const, one_piece = RelaxationProfile.parse("const:5"), RelaxationProfile.parse("pc:5@2pi")
        assert const == one_piece
        assert rescale_sigma(const) == rescale_sigma(one_piece)
        assert rescale_sigma(const).pieces == ((1.0, 5.0 * np.pi),)

    @pytest.mark.parametrize("spec", ["const:nan", "const:inf", "pc:1@pi,nan@2pi", "pc:1@pi,0@2pi"])
    def test_non_positive_or_non_finite_value_rejected(self, spec):
        with pytest.raises(ValidationError):
            RelaxationProfile.parse(spec)

    @pytest.mark.parametrize("spec", ["pc:1@1,2@pi,4@2pi", "pc:1@1,4@2pi", "pc:1@pi,2@4,4@2pi"])
    def test_every_shape_is_taken_as_its_pieces(self, spec):
        # (x_i - x_{i-1}) / 2 pi and pi sigma_i, where only one piece, or two broken at pi, passed
        p = RelaxationProfile.parse(spec)
        starts = [0.0] + [end for end, _ in p.pieces[:-1]]
        want = tuple(((end - start) / (2.0 * np.pi), np.pi * s) for start, (end, s) in zip(starts, p.pieces))
        assert rescale_sigma(p).pieces == want

    def _file_profile(self, tmp_path, n):
        values = np.random.default_rng(n).uniform(0.1, 5.0, n)
        path = tmp_path / "sigma.csv"
        write_field(path, values)
        return path, values

    @pytest.mark.parametrize("n", [8, 32, 256])
    def test_file_samples_back_bit_for_bit_at_its_own_n_only(self, tmp_path, n):
        path, values = self._file_profile(tmp_path, n)
        p = RelaxationProfile.parse(f"file:{path}")
        assert p.n == n and len(p.pieces) == n
        assert p.sample(n).tobytes() == values.tobytes()
        assert p == RelaxationProfile.from_grid(GridFunction(values))
        with pytest.raises(GridMismatchError):
            p.sample(2 * n)
        # the telegrapher takes the n pieces as they are: s_1, ..., s_{n-1}, s_0, each 1/n long
        problem = rescale_sigma(p)
        assert [s for _, s in problem.pieces] == (np.pi * np.roll(values, -1)).tolist()
        assert np.allclose([length for length, _ in problem.pieces], 1.0 / n, rtol=1e-12, atol=0.0)

    def test_node_samples_are_taken_as_their_pieces(self):
        # two node samples give pieces that break at pi, and hold only at n = 2: the telegrapher
        # takes them as those two pieces
        p = RelaxationProfile(((np.pi, 1.0), (2 * np.pi, 4.0)), n=2)
        assert p.sample(2).tolist() == [4.0, 1.0]
        assert rescale_sigma(p) == rescale_sigma(RelaxationProfile.two_piece(1.0, 4.0))

    def test_file_profile_at_another_n_exits_2(self, tmp_path):
        path, _ = self._file_profile(tmp_path, 32)
        code = run(
            "simulate-2v", "--sigma", f"file:{path}", "--n", "64", "--t-final", "1",
            "--out", str(tmp_path / "o"),
        )
        assert code == 2

    def test_telegrapher_takes_a_break_off_pi(self, tmp_path, capsys):
        # 1.71909 is a zero of the closed-form D on pieces of length 1/(2 pi) and 1 - 1/(2 pi)
        assert run("telegrapher", "--sigma", "pc:1@1,4@2pi", "--out", str(tmp_path / "o")) == 0
        assert capsys.readouterr().out.startswith(
            "gap = 1.71909 at gamma = 1.71909+0j (real); alpha_BS = 0.547203; 16 eigenvalues in the strip"
        )

    @pytest.mark.parametrize(
        "pieces",
        [
            [(0.0, 1.0), (2 * np.pi, 2.0)],  # first breakpoint not positive
            [(-1.0, 1.0), (2 * np.pi, 2.0)],
            [(4.0, 1.0), (2.0, 2.0), (2 * np.pi, 3.0)],  # unsorted
            [(np.pi, 1.0), (6.0, 2.0)],  # last breakpoint short of 2pi
            [(np.pi, 1.0), (7.0, 2.0)],  # last breakpoint past 2pi
            [(np.pi, 1.0), (float("nan"), 2.0)],
        ],
    )
    def test_bad_breakpoints_rejected(self, pieces):
        with pytest.raises(ValidationError):
            RelaxationProfile.piecewise(pieces)


class TestSubcommands:
    def test_simulate_2v(self, tmp_path):
        out = tmp_path / "o"
        code = run(
            "simulate-2v", "--sigma", "const:1", "--n", "128",
            "--t-final", "10", "--out", str(out),
        )
        assert code == 0
        assert (out / "trajectory.csv").exists()
        summary = (out / "summary.csv").read_text().splitlines()
        assert summary[0].startswith("series,theta,theoretical_rate,fitted_rate")
        assert len(summary) >= 3

    def test_trajectory_csv_holds_the_run_bit_for_bit(self, tmp_path):
        out = tmp_path / "o"
        argv = ["--sigma", "const:1", "--n", "64", "--t-final", "10", "--theta", "1", "--u0", "zero", "--v0", "cos"]
        assert run("simulate-2v", *argv, "--out", str(out)) == 0
        init = solver.MacroState2V(GridFunction(np.zeros(64)), GridFunction(np.cos(nodes(64))))
        traj = solver.simulate_2v(init, RelaxationProfile.parse("const:1"), 10.0, theta=1.0)
        data = np.genfromtxt(out / "trajectory.csv", delimiter=",", names=True)
        assert data.dtype.names == ("t", *traj.columns)
        assert np.array_equal(data["t"], traj.times)
        assert all(np.array_equal(data[name], column) for name, column in traj.columns.items())

    def test_simulate_2v_defective_envelope_row(self, tmp_path):
        out = tmp_path / "o"
        code = run(
            "simulate-2v", "--sigma", "const:2", "--eps", "0.1", "--n", "128",
            "--t-final", "20", "--out", str(out),
        )
        assert code == 0
        assert "pair_norm_envelope" in (out / "summary.csv").read_text()

    def test_simulate_2v_defective_entropy_follows_eps(self, tmp_path):
        entropy = {}
        for eps in ("0.1", "0.5"):
            out = tmp_path / eps
            code = run(
                "simulate-2v", "--sigma", "const:2", "--eps", eps, "--n", "64",
                "--t-final", "12", "--out", str(out),
            )
            assert code == 0
            data = np.genfromtxt(out / "trajectory.csv", delimiter=",", names=True)
            entropy[eps] = data["entropy"]
            summary = np.genfromtxt(out / "summary.csv", delimiter=",", names=True, dtype=None)
            assert summary["theta"][0] == pytest.approx(constant_rate(2.0, eps=float(eps)).theta)
        assert not np.allclose(entropy["0.1"], entropy["0.5"], rtol=1e-6, atol=0.0)

    def test_simulate_2v_defective_without_eps_fails_before_simulating(self, tmp_path, monkeypatch):
        import gtlab.cli as cli

        def never(*a, **k):
            raise AssertionError("simulate_2v called")

        monkeypatch.setattr(cli, "simulate_2v", never)
        assert run("simulate-2v", "--sigma", "const:2", "--out", str(tmp_path / "o")) == 2

    def test_simulate_3v(self, tmp_path):
        out = tmp_path / "o"
        code = run(
            "simulate-3v", "--sigma", "const:1", "--n", "128",
            "--t-final", "15", "--out", str(out),
        )
        assert code == 0
        assert (out / "summary.csv").exists()

    def test_rates_piecewise(self, tmp_path):
        out = tmp_path / "o"
        assert run("rates", "--sigma", "pc:1@pi,4@2pi", "--out", str(out)) == 0
        text = (out / "rates.csv").read_text()
        assert "perturbative" in text and "three-velocity" in text

    @pytest.mark.parametrize("sigma", ["const:2.0000000000005", "const:1.9999999999995"])
    def test_rates_and_modal_report_agree_next_to_two(self, tmp_path, sigma):
        # both treat a sigma within 1e-12 of 2 as the defective value
        for command in (["rates"], ["modal-report", "--kmax", "3"]):
            argv = command + ["--sigma", sigma, "--out", str(tmp_path / command[0])]
            assert run(*argv) == 2
            assert run(*argv, "--eps", "0.5") == 0

    def test_modal_report(self, tmp_path):
        out = tmp_path / "o"
        assert run("modal-report", "--sigma", "const:5", "--kmax", "10", "--out", str(out)) == 0
        rows = (out / "modal_report.csv").read_text().splitlines()
        assert len(rows) == 11

    def test_poincare_with_improve(self, tmp_path):
        out = tmp_path / "o"
        code = run("poincare", "--sigma", "pc:1@pi,4@2pi", "--improve", "--out", str(out))
        assert code == 0
        assert (out / "poincare.csv").exists()
        iterates = (out / "iterates.csv").read_text().splitlines()
        assert len(iterates) > 3

    def test_poincare_given_weight(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert run("poincare", "--weight", "pc:1@pi,3@2pi", "--out", str(out)) == 0
        assert capsys.readouterr().out.startswith("weight (1, 3): c_min = 0.47252686, C^2 = 2.1162818")
        poincare = (out / "poincare.csv").read_text().splitlines()
        assert poincare[0] == "c_min,c_omega_sq,close_root_flag"
        assert float(poincare[1].split(",")[0]) == pytest.approx(0.47252686, rel=1e-8)
        weight = [row.split(",") for row in (out / "weight.csv").read_text().splitlines()]
        assert weight[0] == ["x_end", "w"]
        assert [(float(x), float(w)) for x, w in weight[1:]] == [(np.pi, 1.0), (2 * np.pi, 3.0)]

    def test_poincare_given_a_file_weight(self, tmp_path, capsys):
        path = tmp_path / "w.csv"
        write_field(path, 2.0 + np.sin(np.arange(64) * 2 * np.pi / 64))
        out = tmp_path / "o"
        assert run("poincare", "--weight", f"file:{path}", "--out", str(out)) == 0
        assert "(min, max over 64 pieces)" in capsys.readouterr().out
        assert len((out / "weight.csv").read_text().splitlines()) == 65

    def test_poincare_improves_a_rate_of_three_pieces(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert run("poincare", "--sigma", "pc:1@1,4@3,0.5@2pi", "--improve", "--out", str(out)) == 0
        line = capsys.readouterr().out.splitlines()[1]
        assert line == "improved rate: alpha_max = 0.440748, raised by 21 bisection steps"
        iterates = [float(row.split(",")[1]) for row in (out / "iterates.csv").read_text().splitlines()[1:]]
        assert iterates[0] == pytest.approx(0.385216, abs=1e-6)
        assert iterates[-1] == pytest.approx(0.440748, abs=1e-5)

    @pytest.mark.parametrize("flags", [["--sigma", "{}", "--improve"], ["--weight", "{}"]], ids=["improve", "weight"])
    def test_poincare_refuses_a_weight_past_the_piece_bound_before_any_count(
        self, tmp_path, capsys, monkeypatch, flags
    ):
        # each count passes over every piece in Python: --improve at 2**20 samples ran for tens of minutes
        def refuse(*args):
            raise AssertionError("counted")

        bound = cli.poincare_mod._MAX_PIECES
        path = tmp_path / "sigma.csv"
        write_field(path, 2.0 + np.sin(np.arange(bound + 2) * 2 * np.pi / (bound + 2)))
        monkeypatch.setattr(cli.poincare_mod, "_count", refuse)
        argv = [flag.format(f"file:{path}") for flag in flags]
        assert run("poincare", *argv, "--out", str(tmp_path / "o")) == 2
        assert capsys.readouterr().err.startswith(
            f"error: a Poincaré weight of {bound + 2} pieces passes the bound of {bound} pieces"
        )
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("pc:1@pi,0@2pi", "got 0.0 on the piece ending at x = 6.28319"),
            ("pc:1@pi,nan@2pi", "got nan on the piece ending at x = 6.28319"),
            ("const:inf", "got inf on the piece ending at x = 6.28319"),
            ("nan", "unknown profile spec 'nan'"),
            ("inf", "unknown profile spec 'inf'"),
        ],
    )
    def test_poincare_refuses_a_weight_that_is_not_positive_and_finite(self, tmp_path, capsys, spec, message):
        assert run("poincare", "--weight", spec, "--out", str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert message in err and len(err.splitlines()) == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--weight", "pc:nan@pi,1@2pi"], "--weight: values must be positive and finite everywhere, got nan"),
            (["--sigma", "huh:1", "--improve"], "--sigma: unknown profile spec 'huh:1'"),
        ],
    )
    def test_poincare_error_names_the_bad_profile_flag(self, tmp_path, capsys, argv, message):
        assert run("poincare", *argv, "--out", str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("spec, same", [("pc:5@1,5@2pi", "const:5"), ("pc:1@1,1@pi,4@2pi", "pc:1@pi,4@2pi")])
    def test_a_break_where_sigma_keeps_its_value_is_no_break(self, tmp_path, spec, same):
        spec_out, same_out = tmp_path / "spec", tmp_path / "same"
        sides = [(spec, spec_out), (same, same_out)]
        for sigma, out in sides:
            assert run("telegrapher", "--sigma", sigma, "--out", str(out / "t")) == 0
        for name in ("telegrapher_summary.csv", "telegrapher_roots.csv"):
            assert (spec_out / "t" / name).read_text() == (same_out / "t" / name).read_text()
        # appendix-a needs sigma_min < sigma_max, so it refuses const:5 either way
        codes = [run("appendix-a", "--sigma", sigma, "--out", str(out / "a")) for sigma, out in sides]
        assert codes == ([2, 2] if same == "const:5" else [0, 0])
        if codes[0] == 0:
            rates = [
                np.genfromtxt(out / "a" / "comparison.csv", delimiter=",", skip_header=1, usecols=1)
                for out in (spec_out, same_out)
            ]
            assert rates[0] == pytest.approx(rates[1], rel=0.0, abs=1e-9)

    def test_appendix_a_on_three_pieces(self, tmp_path, capsys):
        assert run("appendix-a", "--sigma", "pc:1@1,4@3,0.5@2pi", "--out", str(tmp_path / "o")) == 0
        line = "rates: perturbative 0.385216 < improved 0.440748 < optimal 0.772249: ordering holds"
        assert capsys.readouterr().out.splitlines() == [line]

    def test_appendix_a_refuses_a_too_fine_profile_before_any_poincare_work(self, tmp_path, capsys, monkeypatch):
        # the gap comes before the improved rate, so a profile the search refuses costs no count
        def refuse(*args):
            raise AssertionError("counted")

        monkeypatch.setattr(cli.poincare_mod, "_count", refuse)
        assert run("appendix-a", "--sigma", fine_profile(10_000), "--out", str(tmp_path / "o")) == 3
        assert capsys.readouterr().err == (
            "numerical failure: telegrapher gap: argument-principle count failed: over 400 samples "
            "in one batch of contours, the bound at 10000 pieces\n"
        )

    def test_appendix_a_refuses_alpha_star_rounded_to_theta_star(self, tmp_path, capsys, monkeypatch):
        # alpha* = sigma_min (4 + r - sigma_min sigma_max)/(4 + r - sigma_min^2) rounds to theta* =
        # sigma_min here, so the improved rate's bracket is empty; the refusal named --alpha0, a
        # flag appendix-a does not take, and came after the gap
        def refuse(*args):
            raise AssertionError("searched")

        monkeypatch.setattr(cli.tele_mod, "telegrapher_gap", refuse)
        assert run("appendix-a", "--sigma", "pc:1e-300@pi,1@2pi", "--out", str(tmp_path / "o")) == 2
        assert capsys.readouterr().err == (
            "error: improved rate: alpha* = theta* = 1e-300 in floating point; the improved rate lies "
            "between them, so there is no bracket to bisect\n"
        )

    def test_telegrapher(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert run("telegrapher", "--sigma", "pc:1@pi,4@2pi", "--out", str(out)) == 0
        summary = (out / "telegrapher_summary.csv").read_text().splitlines()
        header = summary[0].split(",")
        values = dict(zip(header, summary[1].split(",")))
        assert float(values["gap"]) == pytest.approx(2.72831, abs=1e-3)
        assert float(values["alpha_bs"]) == pytest.approx(0.86845, abs=1e-3)
        assert "17 eigenvalues in the strip (certified count" in capsys.readouterr().out
        roots = (out / "telegrapher_roots.csv").read_text().splitlines()
        assert roots[0] == "re_gamma,im_gamma,abs_d" and len(roots) == 18
        assert all(float(row.split(",")[2]) < 1e-12 for row in roots[1:])

    def test_telegrapher_finds_every_counted_root_of_a_stiff_profile(self, tmp_path, capsys):
        # the seed-grid search found 425 of the 443 counted roots and exited 3
        assert run("telegrapher", "--sigma", "pc:1@pi,100@2pi", "--out", str(tmp_path / "o")) == 0
        assert "gap = 0.104364 at gamma = 0.104364+0j (real)" in capsys.readouterr().out
        assert len((tmp_path / "o" / "telegrapher_roots.csv").read_text().splitlines()) == 444

    def test_telegrapher_strip_reaches_the_l1_norm(self, tmp_path, capsys):
        # 0 < Re < 2 min sigma~ = 2 pi 1e-8 held no eigenvalue; 0 < Re < |sigma~|_L1 holds four
        assert run("telegrapher", "--sigma", "pc:1e-8@pi,1@2pi", "--out", str(tmp_path / "o")) == 0
        assert "gap = 1.22111 at gamma = 1.22111+5.56196j (complex)" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "sigma, line",
        [
            ("pc:0.05@pi,1@2pi", "perturbative 0.049703 < improved 0.0498219 < optimal 0.421803"),
            ("pc:0.25@pi,4@2pi", "perturbative 0.220355 < improved 0.232237 < optimal 0.599659"),
        ],
    )
    def test_appendix_a_on_the_profiles_that_failed(self, tmp_path, capsys, sigma, line):
        # the Poincare scan of (0.05, 1) ran out of memory, and the strip of either held no root
        assert run("appendix-a", "--sigma", sigma, "--out", str(tmp_path / "o")) == 0
        assert f"rates: {line}: ordering holds" in capsys.readouterr().out

    def test_appendix_a_ordering(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert run("appendix-a", "--out", str(out)) == 0
        rows = (out / "comparison.csv").read_text().splitlines()[1:]
        rates = [float(r.split(",")[1]) for r in rows]
        assert rates[0] < rates[1] < rates[2]
        assert "ordering holds" in capsys.readouterr().out

    def test_rate_curve_shape(self, tmp_path):
        out = tmp_path / "o"
        assert run("rate-curve", "--grid", "0.1:10:120", "--out", str(out)) == 0
        rows = (out / "rate_curve.csv").read_text().splitlines()[1:]
        sig = np.array([float(r.split(",")[0]) for r in rows])
        mu = np.array([float(r.split(",")[1]) for r in rows])
        assert not np.any(np.abs(sig - 2.0) < 1e-12)
        below = mu[sig < 2.0]
        above = mu[sig > 2.0]
        assert np.all(np.diff(below) > 0)  # increasing on (0, 2)
        assert np.all(np.diff(above) < 0)  # decreasing on (2, inf)
        tail = mu[sig > 5.0] * sig[sig > 5.0]
        assert np.all((0.5 < tail) & (tail < 2.0))  # O(1/sigma) tail


class TestDeterminismAndConfig:
    def test_identical_seed_gives_identical_bytes(self, tmp_path):
        args = [
            "simulate-2v", "--sigma", "pc:1@pi,4@2pi", "--n", "128",
            "--t-final", "5", "--u0", "random", "--v0", "random", "--seed", "42",
        ]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run(*args, "--out", str(out1)) == 0
        assert run(*args, "--out", str(out2)) == 0
        for name in ("trajectory.csv", "summary.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_different_seed_differs(self, tmp_path):
        base = [
            "simulate-2v", "--sigma", "const:1", "--n", "128", "--t-final", "5",
            "--u0", "random", "--v0", "random",
        ]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run(*base, "--seed", "1", "--out", str(out1)) == 0
        assert run(*base, "--seed", "2", "--out", str(out2)) == 0
        assert (out1 / "trajectory.csv").read_bytes() != (out2 / "trajectory.csv").read_bytes()

    def test_config_file_with_cli_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# run configuration\n"
            "sigma = const:1\n"
            "n = 128\n"
            "t_final = 5\n"
        )
        out = tmp_path / "o"
        code = run(
            "simulate-2v", "--config", str(cfg), "--t-final", "6", "--out", str(out)
        )
        assert code == 0
        last = (out / "trajectory.csv").read_text().splitlines()[-1]
        assert float(last.split(",")[0]) == pytest.approx(6.0, abs=0.05)

    def test_config_key_the_subcommand_does_not_take(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("sigma = const:1\nkmax = 5\n")
        assert run("rates", "--config", str(cfg), "--out", str(tmp_path / "o")) == 2
        assert f"config {cfg}: rates takes no --kmax" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_config_both_spellings(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 64\nt_final = 2\n")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run("simulate-2v", "--config", str(cfg), "--out", str(out1)) == 0
        assert run("simulate-2v", f"--config={cfg}", "--out", str(out2)) == 0
        data = (out1 / "trajectory.csv").read_bytes()
        assert len(data.splitlines()) == 22
        assert (out2 / "trajectory.csv").read_bytes() == data

    def test_one_parser_serves_every_call_and_nothing_leaks_between_calls(self, tmp_path, capsys):
        assert build_parser() is build_parser()
        out = tmp_path / "o"
        assert run("rates", "--sigma", "const:2", "--eps", "0.5", "--out", str(out / "eps")) == 0
        # the --eps of the call before does not carry over
        assert run("rates", "--sigma", "const:2", "--out", str(out / "no-eps")) == 2
        assert "eps" in capsys.readouterr().err
        assert not (out / "no-eps").exists()
        cfg = tmp_path / "run.cfg"
        cfg.write_text("sigma = const:2\neps = 0.5\n")
        assert run("rates", "--config", str(cfg), "--out", str(out / "config")) == 0
        # nor do the config's values: the default sigma, const:1, comes back
        assert run("rates", "--out", str(out / "default")) == 0
        assert run("rates", "--sigma", "const:1", "--out", str(out / "const1")) == 0
        rates = {d.name: (d / "rates.csv").read_bytes() for d in out.iterdir()}
        assert rates["config"] == rates["eps"]
        assert rates["default"] == rates["const1"] != rates["eps"]


class TestExitCodes:
    @pytest.mark.parametrize(
        "argv",
        [
            ["rates", "--theta", "1"],
            ["telegrapher", "--n", "64"],
            ["appendix-a", "--eps", "0.5"],
            ["rate-curve", "--seed", "1"],
            ["simulate-2v", "--alpha", "1"],
            ["simulate-2v", "--t-fin", "5"],  # abbreviations are not accepted
            ["poincare", "--weight", "pc:1@pi,1@2pi", "--scan-step", "10"],  # no scan step to set
            ["poincare", "--w1", "1", "--w2", "3"],  # the weight is --weight
        ],
    )
    def test_flag_no_handler_reads(self, tmp_path, capsys, argv):
        assert run(*argv, "--out", str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unrecognized arguments: --") and len(err.splitlines()) == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["--weight", "pc:1@pi,3@2pi", "--alpha", "9"],  # the weight is given
            ["--weight", "pc:1@pi,3@2pi", "--alpha", "9", "--improve"],
            ["--weight", "pc:1@pi,3@2pi", "--theta", "5"],  # read only by --improve
            ["--weight", "pc:1@pi,3@2pi", "--sigma", "const:3"],
            ["--weight", "pc:1@pi,3@2pi", "--theta", "5", "--alpha", "9", "--sigma", "const:3"],
            ["--weight", "const:1", "--alpha0", "0.5"],  # read only by --improve
            ["--sigma", "pc:1@pi,4@2pi", "--alpha0", "0.5"],
            ["--alpha0", "0.5"],
        ],
    )
    def test_poincare_flag_that_changes_nothing(self, tmp_path, argv):
        assert run("poincare", *argv, "--out", str(tmp_path / "o")) == 2
        assert not (tmp_path / "o").exists()

    def test_validation_failure(self, tmp_path):
        assert run("rates", "--sigma", "const:0", "--out", str(tmp_path / "o")) == 2

    def test_bad_sigma_spec(self, tmp_path):
        assert run("rates", "--sigma", "huh:1", "--out", str(tmp_path / "o")) == 2

    def test_dt_off_the_shift_lattice_exits_two(self, tmp_path):
        # the split scheme shifts by whole cells, so dt must be a multiple of dx
        code = run(
            "simulate-2v", "--sigma", "const:1", "--n", "128", "--t-final", "0.5",
            "--dt", "0.01", "--out", str(tmp_path / "o"),
        )
        assert code == 2  # dt incommensurate with dx for the split scheme

    @pytest.mark.parametrize("every", ["0", "-1"])
    def test_record_every_below_one(self, tmp_path, every):
        code = run(
            "simulate-2v", "--n", "64", "--t-final", "1", "--record-every", every,
            "--out", str(tmp_path / "o"),
        )
        assert code == 2

    def test_numerical_failure_exit_three(self, tmp_path, monkeypatch):
        import gtlab.cli as cli
        from gtlab.errors import NumericalError

        def boom(*a, **k):
            raise NumericalError("no roots")

        monkeypatch.setattr(cli.tele_mod, "telegrapher_gap", boom)
        assert run("telegrapher", "--out", str(tmp_path / "o")) == 3

    def test_overflowing_entropy_exits_three_without_writing_nan_rates(self, tmp_path, capsys):
        # RK4 at dt = 0.5 blows up: by t = 25.5 the entropy overflows while
        # the state is still finite, and at T = 30 the state never turns non-finite
        code = run(
            "simulate-2v", "--sigma", "const:1", "--n", "64", "--scheme", "rk4", "--dt", "0.5",
            "--t-final", "30", "--u0", "random", "--v0", "random", "--out", str(tmp_path / "o"),
        )
        assert code == 3
        err = capsys.readouterr().err
        assert "non-finite diagnostics at t = 25.5" in err
        assert "RuntimeWarning" not in err
        assert not (tmp_path / "o" / "summary.csv").exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "argv, code, message",
        [
            # the fit fails after the whole simulation
            (["simulate-2v", "--n", "64", "--t-final", "1", "--record-every", "8"], 3, "usable points"),
            # the constant of the alpha* weight is found, then alpha0 = 5 lies past the bracket's top
            (
                ["poincare", "--sigma", "pc:1@pi,4@2pi", "--improve", "--alpha0", "5"],
                2,
                "alpha0 = 5 is inadmissible: it needs 0 < alpha0 < min(theta, 2 sigma_min - theta) = 1 and",
            ),
            (["simulate-2v", "--u0", "file:/nonexistent"], 2, "cannot parse field spec"),
            # --out names an existing file
            (["rates"], 2, "cannot write --out"),
            # c_min >= 1/max w lies past the largest double when both weights are subnormal
            (["poincare", "--weight", "pc:1e-320@pi,1e-320@2pi"], 3, "c_min >= 1/max w = 1/9.99989e-321 overflows"),
            (["poincare", "--weight", "pc:1e-320@pi,5e-324@2pi"], 3, "c_min >= 1/max w = 1/9.99989e-321 overflows"),
            # non-finite numbers are refused as the flags are read
            (["simulate-2v", "--t-final", "nan"], 2, "--t-final: expected a finite number, got 'nan'"),
            (["simulate-2v", "--t-final", "inf"], 2, "--t-final: expected a finite number, got 'inf'"),
            (["simulate-2v", "--dt", "nan"], 2, "--dt: expected a finite number, got 'nan'"),
            (["simulate-3v", "--dt", "inf"], 2, "--dt: expected a finite number, got 'inf'"),
            (["poincare", "--weight", "pc:nan@pi,1@2pi"], 2, "got nan on the piece ending at x = 3.14159"),
            (["poincare", "--alpha", "nan"], 2, "--alpha: expected a finite number"),
            (["poincare", "--theta", "nan"], 2, "--theta: expected a finite number"),
            (["rates", "--sigma", "pc:1@pi,nan@2pi"], 2, "got nan on the piece ending at x = 6.28319"),
            # malformed or mis-sized file: data ({tmp} is the test's directory)
            (["simulate-2v", "--u0", "file:{tmp}/one_cell.csv"], 2, "one_cell.csv, line 3: expected"),
            (["simulate-2v", "--sigma", "file:{tmp}/one_cell.csv"], 2, "one_cell.csv, line 3: expected"),
            (["simulate-2v", "--u0", "file:{tmp}/empty.csv"], 2, "header row in"),
            (["rates", "--sigma", "file:{tmp}/empty.csv"], 2, "header row in"),
            (
                ["simulate-2v", "--n", "64", "--u0", "file:{tmp}/n16.csv", "--v0", "file:{tmp}/n16.csv"],
                2,
                "n16.csv holds 16 samples, but --n is 64",
            ),
            # x = 100, 99, ..., 37 are not the nodes 2 pi j / 64
            (["rates", "--sigma", "file:{tmp}/off_grid.csv"], 2, "off_grid.csv, line 2: x = 100.0 is not"),
            (
                ["simulate-2v", "--n", "64", "--u0", "file:{tmp}/off_grid.csv"],
                2,
                "off_grid.csv, line 2: x = 100.0 is not",
            ),
            # row counts above 100 000 are refused before any row is computed
            (["modal-report", "--kmax", "1000000000"], 2, "--kmax asks for 1000000000 rows; the bound is 100000"),
            (
                ["rate-curve", "--grid", "0.05:10:1000000000"],
                2,
                "--grid COUNT asks for 1000000000 rows; the bound is 100000",
            ),
            # 3e301 records: past the largest array length, refused before any allocation
            (["simulate-2v", "--n", "64", "--scheme", "rk4", "--dt", "1e-300"], 2, "do not fit in memory"),
            # 0 nodes: refused, not a division by zero while the nodes are built
            (
                ["simulate-2v", "--n", "0", "--u0", "sin"],
                2,
                "--n: grid resolution must be an even integer >= 8, got 0",
            ),
            # numpy's default_rng takes no negative seed
            (["simulate-2v", "--seed", "-1", "--u0", "random"], 2, "--seed: expected an integer >= 0, got '-1'"),
            # one step would overshoot T = 30, leaving the fit no point
            (["simulate-2v", "--dt", "1e300"], 2, "dt = 1e+300 exceeds t_final = 30; lower --dt"),
            # the telegrapher strip holds no root, and no Poincare constant is computed
            (
                ["appendix-a", "--sigma", "pc:1e-4@pi,2e-4@2pi"],
                3,
                "no eigenvalues found in the search strip; enlarge re_max/im_max",
            ),
            # --n is blamed, not the default field that would be sampled on it
            (["simulate-2v", "--n", "17"], 2, "--n: grid resolution must be an even integer >= 8, got 17"),
            # non-finite initial data is refused before any step, without a numpy warning
            (["simulate-2v", "--n", "16", "--u0", "const:nan"], 2, "the initial state is not finite"),
            (["simulate-2v", "--n", "16", "--v0", "const:inf"], 2, "the initial state is not finite"),
            (["simulate-2v", "--n", "16", "--u0", "file:{tmp}/nan16.csv"], 2, "the initial state is not finite"),
            (
                ["simulate-3v", "--n", "16", "--f1", "const:inf", "--f2", "const:-inf"],
                2,
                "the initial state is not finite",
            ),
            # on a strip this thin no sample of D clears its rounding bound
            (["telegrapher", "--sigma", "const:1e-300"], 3, "argument-principle count failed on 5 of 5 boxes"),
        ],
    )
    def test_failed_run_writes_nothing(self, tmp_path, capsys, argv, code, message):
        (tmp_path / "one_cell.csv").write_text("x,value\n0,1\n0.5\n")
        rows = "".join(f"{x},1\n" for x in range(100, 36, -1))
        (tmp_path / "off_grid.csv").write_text("x,value\n" + rows)
        (tmp_path / "empty.csv").write_text("")
        write_field(tmp_path / "n16.csv", random_band_limited(16, seed=1).values)
        write_field(tmp_path / "nan16.csv", np.where(np.arange(16) == 3, np.nan, 1.0))
        argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
        out = tmp_path / "o"
        out_is_file = message == "cannot write --out"
        if out_is_file:
            out.write_text("kept")
        assert run(*argv, "--out", str(out)) == code
        err = capsys.readouterr().err
        assert message in err and len(err.splitlines()) == 1
        assert (out.read_text() == "kept") if out_is_file else not out.exists()


@pytest.mark.parametrize(
    "argv, line",
    [
        (["rates", "--sigma", "const:1e12"], "constant-sharp             4e-12          2e-12          1"),
        (["rates", "--sigma", "const:1e300"], "constant-sharp             4e-300          2e-300          1"),
        (["modal-report", "--sigma", "const:1e300"], "spectral gap mu(1e+300) = 1e-300 (defective)"),
        (["rate-curve", "--grid", "1e300:1e301:10"], "tabulated mu(sigma) at 10 points into"),
        (["simulate-2v", "--sigma", "const:1e300", "--n", "64", "--u0", "random"], "entropy    4e-300  2e-300"),
        (["rates", "--sigma", "const:8e307"], "constant-sharp             5e-308          2.5e-308        1"),
        (["rates", "--sigma", "const:1.7e308"], "constant-sharp             2.3529412e-308  1.1764706e-308  1"),
        (["rate-curve", "--grid", "8e307:1.79e308:3"], "tabulated mu(sigma) at 3 points into"),
    ],
)
def test_large_constant_sigma_has_a_positive_rate(tmp_path, capsys, argv, line):
    # mu(sigma) = (2/sigma)/(1 + sqrt(1 - (2/sigma)^2)) neither cancels to 0 nor overflows,
    # and rate_3v's (r/3)/(s + 1/(9s)) does not overflow either
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(*argv, "--out", str(tmp_path / "o")) == 0
    assert any(printed.startswith(line) for printed in capsys.readouterr().out.splitlines())


@pytest.mark.parametrize("sigma", ["1e300", "8e307", "1.7e308"])
def test_modal_report_keeps_the_gap_at_huge_sigma(tmp_path, sigma):
    # theta = 4/sigma and s -> 1, so the gap of mode k is (2 - 1/k^2)/sigma
    out = tmp_path / "o"
    assert run("modal-report", "--sigma", f"const:{sigma}", "--kmax", "3", "--out", str(out)) == 0
    rows = [line.split(",") for line in (out / "modal_report.csv").read_text().splitlines()[1:]]
    gaps = [float(row[5]) for row in rows]
    assert gaps == pytest.approx([(2.0 - 1.0 / k**2) / float(sigma) for k in (1, 2, 3)], rel=1e-14, abs=0)


@pytest.mark.parametrize(
    "argv, code",
    [
        (("simulate-2v",), 3),  # the entropy falls below the fit's floor in one step
        (("simulate-2v", "--u0", "random", "--v0", "random"), 3),  # 2 sigma ||v||^2 overflows
        (("simulate-2v", "--scheme", "rk4"), 3),  # the stiff relaxation term blows RK4 up
        (("simulate-3v",), 0),
        (("simulate-3v", "--scheme", "rk4"), 3),
    ],
)
@pytest.mark.parametrize("sigma", ["8e307", "1.7e308"])
def test_simulations_at_the_top_of_the_float_range_end_in_one_line(tmp_path, capsys, sigma, argv, code):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(*argv, "--sigma", f"const:{sigma}", "--n", "64", "--out", str(tmp_path / "o")) == code
    assert len(capsys.readouterr().err.splitlines()) == (code != 0)


@pytest.mark.parametrize(
    "sigma, data, message",
    [
        ("const:8e307", (), "decay fit: the series falls below the floor 1e-12 at t = 0.0981748, "),
        ("const:1.7e308", (), "decay fit: the series falls below the floor 1e-12 at t = 0.0981748, "),
        ("const:8e307", ("--u0", "random", "--v0", "random"), "non-finite diagnostics at t = 0"),
        ("pc:8e307@pi,1e308@2pi", (), "non-finite diagnostics at t = 0"),
    ],
    ids=["8e307", "1.7e308", "8e307-random", "two-piece"],
)
def test_huge_sigma_simulations_end_where_the_numbers_do(tmp_path, capsys, sigma, data, message):
    # Constant sigma records from forward-normalised modes, whose sums divide
    # by n before they add up, so the t0 rhs 2 sigma ||v||^2 = sigma of
    # v = cos is finite and the run ends at the fit, which names the floor.
    # With random v, ||v||^2 > 1/2 and the rhs itself overflows. A two-piece
    # sigma records from samples, whose sum of sigma v^2 overflows before it
    # is divided by n
    assert run("simulate-2v", "--sigma", sigma, "--n", "64", *data, "--out", str(tmp_path / "o")) == 3
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"numerical failure: {message}")


TWO_PIECE_HUGE = {m: f"pc:1@pi,{m}@2pi" for m in ("1e8", "1e12", "1e200", "1e300", "1.7e308")}


@pytest.mark.parametrize(
    "argv, code, line",
    [
        (["rates", "--sigma", TWO_PIECE_HUGE["1e8"]], 0, "perturbative               4e-08          2e-08          1"),
        (["rates", "--sigma", TWO_PIECE_HUGE["1e12"]], 0, "perturbative               4e-12          2e-12          1"),
        (["simulate-2v", "--sigma", TWO_PIECE_HUGE["1e12"], "--n", "64"], 0, "entropy  4e-12  2e-12"),
        (["simulate-2v", "--sigma", TWO_PIECE_HUGE["1e200"], "--n", "64"], 0, "entropy  4e-200  2e-200"),
        (["simulate-2v", "--sigma", TWO_PIECE_HUGE["1e300"], "--n", "64"], 0, "entropy  4e-300  2e-300"),
        (["rates", "--sigma", TWO_PIECE_HUGE["1e200"]], 3, "numerical failure: the three-velocity rate"),
        (["rates", "--sigma", TWO_PIECE_HUGE["1.7e308"]], 3, "numerical failure: the three-velocity rate"),
        # c_min = 1.6680946/w2 as w1/w2 -> 0; appendix-a fails in the telegrapher search, before any constant
        (["poincare", "--sigma", TWO_PIECE_HUGE["1e200"]], 0, "weight (0.5, 5e+199): c_min = 3.3361891e-200"),
        (
            ["appendix-a", "--sigma", TWO_PIECE_HUGE["1e300"]],
            3,
            "numerical failure: telegrapher gap: argument-principle count failed: over 2000000 samples in one "
            "batch of contours, the bound at 2 pieces",
        ),
        (
            ["appendix-a", "--sigma", TWO_PIECE_HUGE["1.7e308"]],
            3,
            "numerical failure: telegrapher gap: the search strip of damping (3.14159, inf) overflows",
        ),
        (["rates", "--sigma", "const:1e-310"], 0, "three-velocity             1.2247449e-310  5e-311"),
        (["simulate-3v", "--sigma", "const:1e-310", "--n", "64", "--t-final", "5"], 0, "entropy3  1.2247449e-310"),
        # the sharp rate below sigma = 2 is sigma itself, not 2 (sigma/2), which is 0 at 5e-324
        (["rates", "--sigma", "const:1e-320"], 0, "constant-sharp             9.9998887e-321  9.9998887e-321  1"),
        (
            ["rates", "--sigma", "const:5e-324"],
            3,
            "numerical failure: the three-velocity rate min(sigma_min/2, 3 sigma_min/(9 sigma_max^2 + 1)) "
            "underflows to 0 at sigma_min = 4.94066e-324",
        ),
    ],
)
@pytest.mark.filterwarnings("error")
def test_rates_at_the_ends_of_the_float_range_end_in_one_line(tmp_path, capsys, argv, code, line):
    # alpha* = 2 mu(sigma_max) without sigma_max^2, the Poincare weight without (s - alpha)^2,
    # and the three-velocity rate without 1/(9 sigma_max) at 1e-310; what still fails says where
    assert run(*argv, "--out", str(tmp_path / "o")) == code
    captured = capsys.readouterr()
    lines = captured.err.splitlines() if code else captured.out.splitlines()
    assert any(printed.startswith(line) for printed in lines)
    assert len(captured.err.splitlines()) == (code != 0)


def assert_printed_summary(out, printed_text, rows):
    """The printed table holds the rows of summary.csv, each number to 8 digits."""
    printed = [line.split() for line in printed_text.splitlines()[1:]]
    written = [line.split(",") for line in (out / "summary.csv").read_text().splitlines()[1:]]
    assert len(printed) == len(written) == rows
    for shown, row in zip(printed, written):
        assert shown[0] == row[0]
        for cell, value in zip(shown[1:], row[1:]):
            assert cell == format(float(value), ".8g")
            assert float(cell) == pytest.approx(float(value), rel=5e-8, abs=0.0)


def test_printed_table_reads_back_to_the_csv(tmp_path, capsys):
    # the entropy margin here is about -4e-9: its exponent must survive printing
    out = tmp_path / "o"
    assert run("simulate-2v", "--sigma", "const:1", "--n", "128", "--t-final", "20", "--out", str(out)) == 0
    assert_printed_summary(out, capsys.readouterr().out, 2)


def test_simulate_3v_prints_the_same_table(tmp_path, capsys):
    out = tmp_path / "o"
    assert run("simulate-3v", "--sigma", "const:1", "--n", "64", "--t-final", "20", "--out", str(out)) == 0
    printed = capsys.readouterr().out
    assert printed.split()[:6] == ["series", "theta", "theoretical", "fitted", "margin", "r2"]
    assert_printed_summary(out, printed, 1)


def run_capped(out, *argv):
    """Run gtlab in a child process under a 2 GiB address-space cap."""

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    return subprocess.run(
        [sys.executable, "-m", "gtlab", *argv, "--out", str(out)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")},
        preexec_fn=cap,
        timeout=120,
    )


def test_records_beyond_memory_exit_two(tmp_path):
    # 3e10 records of RK4 steps at dt = 1e-9, and 3e301 at dt = 1e-300: counts in 3 digits,
    # not the 301-digit integers
    for dt, count in (("1e-9", "3e+10"), ("1e-300", "3e+301")):
        out = tmp_path / "o"
        proc = run_capped(out, "simulate-2v", "--n", "64", "--scheme", "rk4", "--dt", dt, "--t-final", "30")
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [
            f"error: {count} records ({count} steps, one record every 1) "
            "do not fit in memory; raise --record-every"
        ]
        assert not out.exists()


def test_steps_beyond_the_work_bound_exit_two(tmp_path):
    # 4 records fit, but 3e10 steps of 128 cells would not end in bounded time
    out = tmp_path / "o"
    argv = ["simulate-2v", "--n", "64", "--scheme", "rk4", "--dt", "1e-9", "--t-final", "30"]
    proc = run_capped(out, *argv, "--record-every", "10000000000")
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [
        "error: 30000000000 steps of 128 cells exceed the bound of 1e+10 cell updates; "
        "raise --dt or lower --t-final"
    ]
    assert not out.exists()


def test_grid_beyond_the_node_bound_exits_two(tmp_path):
    # 1e9 nodes would need 7.45 GiB for the node array alone
    out = tmp_path / "o"
    proc = run_capped(out, "simulate-2v", "--n", "1000000000", "--t-final", "1")
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == ["error: --n 1000000000 exceeds the bound of 1048576 grid nodes"]
    assert not out.exists()


@pytest.mark.parametrize(
    "w1, code, line",
    [
        # c_min(w1, 1) -> 1.6680946 as w1 -> 0, a subnormal w1 included (a Fourier-Galerkin
        # solve with 800 modes agrees with the count to 1e-7 at w1 = 1e-4)
        ("1e-300", 0, "weight (1e-300, 1): c_min = 1.6680946, C^2 = 0.5994864, C = 0.77426507"),
        ("1e-320", 0, "weight (9.99989e-321, 1): c_min = 1.6680946, C^2 = 0.5994864, C = 0.77426507"),
    ],
)
def test_poincare_of_a_vanishing_weight_ends_in_one_line(tmp_path, w1, code, line):
    # the window [1/max w, 2/(w1 + w2)] = [1, 2] does not grow as w1 falls
    out = tmp_path / "o"
    proc = run_capped(out, "poincare", "--weight", f"pc:{w1}@pi,1@2pi")
    assert proc.returncode == code
    assert (proc.stderr if code else proc.stdout).splitlines()[0].startswith(line)
    assert proc.stderr.count("\n") == (code != 0)


@pytest.mark.parametrize(
    "argv, line",
    [
        # c_min = 1/w at equal weights
        (["--weight", "pc:10000@pi,10000@2pi"], "weight (10000, 10000): c_min = 0.0001, C^2 = 10000"),
        (["--weight", "pc:3000@pi,3000@2pi"], "weight (3000, 3000): c_min = 0.00033333333, C^2 = 3000"),
        (["--weight", "pc:1000@pi,1000@2pi"], "weight (1000, 1000): c_min = 0.001, C^2 = 1000"),
        # the vanishing weight last: x -> x + pi swaps the pieces; the line gives (min w, max w)
        (["--weight", "pc:1@pi,1e-300@2pi"], "weight (1e-300, 1): c_min = 1.6680946, C^2 = 0.5994864"),
        # c_min(0.7, 1.3)/1000
        (["--weight", "pc:700@pi,1300@2pi"], "weight (700, 1300): c_min = 0.00097858617, C^2 = 1021.8824"),
        # the weight (0.5, 8.5e307): 1.6680946/8.5e307
        (["--sigma", "pc:1@pi,1.7e308@2pi"], "weight (0.5, 8.5e+307): c_min = 1.9624642e-308"),
    ],
)
@pytest.mark.filterwarnings("error")
def test_poincare_constants_of_large_and_vanishing_weights(tmp_path, capsys, argv, line):
    assert run("poincare", *argv, "--out", str(tmp_path / "o")) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines()[0].startswith(line)
    assert captured.err == ""


@pytest.mark.parametrize(
    "sigma, code, line",
    [
        # weights near 1e-4 and 6e-8 at alpha*; the first exits 3 in the telegrapher
        # strip, before any Poincare constant
        ("pc:1e-4@pi,2e-4@2pi", 3, "numerical failure: telegrapher gap: no eigenvalues found in the search strip"),
        ("pc:1@pi,1.0000001@2pi", 0, "rates: perturbative 1 < improved 1 < optimal 1: ordering holds"),
    ],
)
def test_appendix_a_with_tiny_poincare_weights_ends_in_one_line(tmp_path, sigma, code, line):
    out = tmp_path / "o"
    proc = run_capped(out, "appendix-a", "--sigma", sigma)
    assert proc.returncode == code
    assert (proc.stderr if code else proc.stdout).splitlines()[0].startswith(line)
    assert proc.stderr.count("\n") == (code != 0)
    if code == 0:
        rates = dict(row.split(",") for row in (out / "comparison.csv").read_text().splitlines()[1:])
        assert float(rates["perturbative"]) < float(rates["improved-poincare"]) < float(rates["bernard-salvarani"])


def test_contour_beyond_the_sample_bound_exits_three(tmp_path):
    # the strip's boxes would take 1041M samples, 7.8 GiB for their positions alone
    out = tmp_path / "o"
    proc = run_capped(out, "telegrapher", "--sigma", "pc:1e-6@pi,1e6@2pi")
    assert proc.returncode == 3
    assert proc.stderr.splitlines() == [
        "numerical failure: telegrapher gap: argument-principle count failed: over 2000000 samples in one "
        "batch of contours, the bound at 2 pieces"
    ]
    assert not out.exists()


@pytest.mark.parametrize("source, samples", [("pc", 400), ("file", 244)])
def test_a_profile_of_many_pieces_exits_three_within_seconds(tmp_path, capsys, source, samples):
    # D costs a pass over the pieces per sample, so the contour bound is on samples times pieces:
    # 4e6 / 10^4 pieces, or / 2^14 samples of 2 + sin x, leaves too few samples for the strip
    if source == "pc":
        sigma, pieces = fine_profile(10_000), 10_000
    else:
        pieces = 2**14
        write_field(tmp_path / "s.csv", 2.0 + np.sin(2.0 * np.pi * np.arange(pieces) / pieces))
        sigma = f"file:{tmp_path / 's.csv'}"
    start = time.perf_counter()
    assert run("telegrapher", "--sigma", sigma, "--out", str(tmp_path / "o")) == 3
    assert time.perf_counter() - start < 5.0
    assert capsys.readouterr().err == (
        f"numerical failure: telegrapher gap: argument-principle count failed: over {samples} samples "
        f"in one batch of contours, the bound at {pieces} pieces\n"
    )


@pytest.mark.parametrize(
    "argv, line",
    [
        # lambda w_alpha overflowed in the count, where math.cos(inf) raised an uncaught ValueError
        (
            ["poincare", "--sigma", "pc:1e200@pi,2e200@2pi", "--theta", "1e200", "--improve", "--alpha0", "1e150"],
            "improved rate: lambda = 2.5e+199 times w = 1e+200 overflows on piece 1 of 2",
        ),
        # the Rayleigh window's top overflows to inf, with the same uncaught ValueError
        (["poincare", "--weight", "pc:1@5e-324,5e-324@2pi"], "Poincaré constant: lambda = inf times w = 1"),
        (["poincare", "--weight", "pc:1e-320@pi,1e-320@2pi"], "Poincaré constant: c_min >= 1/max w"),
        (["telegrapher", "--sigma", "pc:1e-4@pi,2e-4@2pi"], "telegrapher gap: no eigenvalues found"),
    ],
)
def test_a_numerical_failure_names_its_stage(tmp_path, capsys, argv, line):
    assert run(*argv, "--out", str(tmp_path / "o")) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"numerical failure: {line}") and len(err.splitlines()) == 1


@pytest.fixture
def no_simulation(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("stepped")

    monkeypatch.setattr(solver, "_split_step", refuse)
    monkeypatch.setattr(solver, "_rk4_step", refuse)


class TestNyquistInvariant:
    """Runs whose scheme conserves the checkerboard of the summed density exit 2 unstepped."""

    ARGV = ("simulate-2v", "--sigma", "const:1", "--n", "64", "--v0", "zero", "--t-final", "30")

    @staticmethod
    def refusal(scheme):
        return [
            "error: the initial data has checkerboard component L = sum_j (-1)^j S_j / n = 1, "
            f"S = sum_i f_i; scheme {scheme} conserves |L|, so it never decays"
        ]

    @pytest.mark.parametrize(
        "scheme, named", [("split", "split with shift m = 1 cells"), ("rk4", "rk4")], ids=["split", "rk4"]
    )
    def test_nyquist_u0_exits_two_before_simulating(self, tmp_path, capsys, no_simulation, scheme, named):
        out = tmp_path / "o"
        assert run(*self.ARGV, "--u0", "cos:32", "--scheme", scheme, "--out", str(out)) == 2
        assert capsys.readouterr().err.splitlines() == self.refusal(named)
        assert not out.exists()

    @pytest.mark.parametrize("scheme", ["split", "rk4"])
    def test_nyquist_in_a_file_field_exits_two(self, tmp_path, capsys, no_simulation, scheme):
        x = 2 * np.pi * np.arange(64) / 64
        path = tmp_path / "u0.csv"
        write_field(path, np.sin(x) + (-1.0) ** np.arange(64))
        code = run(*self.ARGV, "--u0", f"file:{path}", "--scheme", scheme, "--out", str(tmp_path / "o"))
        assert code == 2
        assert "checkerboard component L = sum_j (-1)^j S_j / n = 1," in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, named",
        [
            (("--scheme", "rk4"), "rk4"),
            (("--dt", "0.19634954084936207"), "split with shift m = 2 cells"),  # dt = 2 dx
        ],
        ids=["rk4", "split-even-shift"],
    )
    def test_three_velocity_checkerboard_exits_two_before_simulating(
        self, tmp_path, capsys, no_simulation, flags, named
    ):
        out = tmp_path / "o"
        argv = ("simulate-3v", "--f1", "cos:32", "--n", "64", "--t-final", "30", *flags)
        assert run(*argv, "--out", str(out)) == 2
        assert capsys.readouterr().err.splitlines() == self.refusal(named)
        assert not out.exists()

    def test_three_velocity_split_with_an_odd_shift_decays(self, tmp_path, capsys):
        argv = ("simulate-3v", "--f1", "cos:32", "--n", "64", "--t-final", "30")
        assert run(*argv, "--out", str(tmp_path / "o")) == 0
        assert capsys.readouterr().out.splitlines()[1].split()[3] == "0.66917662"

    @pytest.mark.parametrize(
        "u0, scheme",
        [("cos:31", "split"), ("sin", "split"), ("sin", "rk4"), ("random", "split"), ("random", "rk4")],
    )
    def test_data_without_it_still_runs(self, tmp_path, u0, scheme):
        assert run(*self.ARGV, "--u0", u0, "--scheme", scheme, "--out", str(tmp_path / "o")) == 0


class TestThetaBound:
    """E_theta is a norm only for |theta| < 2; any other --theta exits 2 before any step."""

    @pytest.mark.parametrize(
        "command, theta",
        [("simulate-2v", "3"), ("simulate-2v", "2"), ("simulate-2v", "-2.5"), ("simulate-3v", "100")],
    )
    def test_exits_two_before_any_step(self, tmp_path, capsys, no_simulation, command, theta):
        out = tmp_path / "o"
        assert run(command, "--theta", theta, "--t-final", "5", "--out", str(out)) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: theta = {theta}: the entropy E_theta is a norm only for |theta| < 2"
        ]
        assert not out.exists()

    @pytest.mark.parametrize("theta", ["1.9", "-1"])
    def test_a_twist_inside_the_bound_runs(self, tmp_path, theta):
        assert run("simulate-2v", "--theta", theta, "--t-final", "5", "--out", str(tmp_path / "o")) == 0


@pytest.mark.parametrize("command", ["simulate-2v", "simulate-3v"])
def test_split_run_at_the_grid_bound_fits_the_memory_cap(tmp_path, command):
    # 30 split steps at n = 2**20 (dt = dx), recorded at t0 and every second
    # step: 16 records, the fewest that leave the fit its 10 points, so the
    # run ends in exit 0 under the 2 GiB address-space cap
    t_final = repr(30 * 2 * np.pi / 2**20)
    out = tmp_path / "o"
    argv = [command, "--n", str(2**20), "--t-final", t_final, "--record-every", "2", "--seed", "1"]
    proc = run_capped(out, *argv, *(["--u0", "random"] if command == "simulate-2v" else []))
    assert proc.returncode == 0, proc.stderr
    assert len((out / "trajectory.csv").read_text().splitlines()) == 17


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["simulate-2v", "--sigma", "const:1.5", "--u0", "random", "--v0", "random", "--t-final", "90"],
            "decay fit: the series falls below the floor 1e-12 at t = 20.5676, "
            "before the window [22.5004, 81.0015] opens",
        ),
        (
            ["simulate-3v", "--sigma", "const:1.5", "--f1", "random", "--f2", "random", "--f3", "random",
             "--t-final", "400"],
            "decay fit: the series falls below the floor 1e-12 at t = 28.2989, "
            "before the window [99.9971, 359.99] opens",
        ),
    ],
    ids=["2v", "3v"],
)
def test_a_series_below_the_floor_before_the_fit_window_names_the_crossing(tmp_path, capsys, argv, message):
    # the old message asked to shrink the window, which no flag sets
    assert run(*argv, "--out", str(tmp_path / "o")) == 3
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"numerical failure: {message}")
    assert "shrink the window" not in line


def _csv_rows(path) -> list:
    return [line.split(",") for line in path.read_text().splitlines()]


@pytest.mark.parametrize("sigma", ["pc:1@pi,4@2pi", "pc:2.93@pi,0.402@2pi"])
def test_each_rate_has_one_value_across_subcommands(tmp_path, sigma):
    # appendix-a, telegrapher and rates reach each rate by the same library path
    for command in ("appendix-a", "telegrapher", "rates"):
        assert run(command, "--sigma", sigma, "--out", str(tmp_path / command)) == 0
    comparison = dict(_csv_rows(tmp_path / "appendix-a" / "comparison.csv")[1:])
    header, summary = _csv_rows(tmp_path / "telegrapher" / "telegrapher_summary.csv")
    (perturbative,) = [r for r in _csv_rows(tmp_path / "rates" / "rates.csv") if r[0] == "perturbative"]
    assert float(comparison["bernard-salvarani"]) == float(summary[header.index("alpha_bs")])
    assert float(comparison["perturbative"]) == float(perturbative[2])
