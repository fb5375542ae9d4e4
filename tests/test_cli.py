"""CLI harness: subcommands, outputs, determinism, exit codes."""

import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gtlab import cli
from gtlab.cli import build_parser, main
from gtlab.errors import GridMismatchError, ValidationError
from gtlab.profiles import RelaxationProfile, as_profile
from gtlab.rates import constant_rate
from gtlab.torus import GridFunction, random_band_limited


def run(*argv) -> int:
    return main(list(argv))


class TestSigmaParsing:
    def test_const(self):
        p = RelaxationProfile.parse("const:5")
        assert p.is_constant and p.sigma_min == 5.0

    def test_piecewise(self):
        p = RelaxationProfile.parse("pc:1@pi,4@2pi")
        assert p.as_two_piece() == (1.0, 4.0)
        assert p.sigma_min == 1.0 and p.sigma_max == 4.0

    def test_piecewise_numeric_breaks(self):
        p = RelaxationProfile.parse("pc:2@3.14159265358979,3@2pi")
        assert len(p.pieces) == 2

    def test_file(self, tmp_path):
        f = GridFunction.constant(2.0, 32)
        path = tmp_path / "sigma.csv"
        f.to_csv(path)
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
        assert const.as_two_piece() == one_piece.as_two_piece() == (5.0, 5.0)

    @pytest.mark.parametrize("spec", ["const:nan", "const:inf", "pc:1@pi,nan@2pi", "pc:1@pi,0@2pi"])
    def test_non_positive_or_non_finite_value_rejected(self, spec):
        with pytest.raises(ValidationError):
            RelaxationProfile.parse(spec)

    @pytest.mark.parametrize("spec", ["pc:1@1,2@pi,4@2pi", "pc:1@1,4@2pi", "pc:1@pi,2@4,4@2pi"])
    def test_as_two_piece_rejects_other_shapes(self, spec):
        with pytest.raises(ValidationError, match="not two-piece"):
            RelaxationProfile.parse(spec).as_two_piece()

    def _file_profile(self, tmp_path, n):
        values = np.random.default_rng(n).uniform(0.1, 5.0, n)
        path = tmp_path / "sigma.csv"
        GridFunction(values).to_csv(path)
        return path, values

    @pytest.mark.parametrize("n", [8, 32, 256])
    def test_file_samples_back_bit_for_bit_at_its_own_n_only(self, tmp_path, n):
        path, values = self._file_profile(tmp_path, n)
        p = RelaxationProfile.parse(f"file:{path}")
        assert p.n == n and len(p.pieces) == n
        assert p.sample(n).tobytes() == values.tobytes()
        assert p == as_profile(values) == as_profile(GridFunction(values))
        with pytest.raises(GridMismatchError):
            p.sample(2 * n)
        with pytest.raises(ValidationError, match="not two-piece"):
            p.as_two_piece()

    def test_node_samples_are_never_two_piece(self):
        # two node samples give pieces that break at pi, yet hold only at n = 2
        p = RelaxationProfile(((np.pi, 1.0), (2 * np.pi, 4.0)), n=2)
        assert p.sample(2).tolist() == [4.0, 1.0]
        with pytest.raises(ValidationError, match="not two-piece"):
            p.as_two_piece()

    def test_file_profile_at_another_n_exits_2(self, tmp_path):
        path, _ = self._file_profile(tmp_path, 32)
        code = run(
            "simulate-2v", "--sigma", f"file:{path}", "--n", "64", "--t-final", "1",
            "--out", str(tmp_path / "o"),
        )
        assert code == 2

    def test_telegrapher_rejects_a_break_off_pi(self, tmp_path):
        assert run("telegrapher", "--sigma", "pc:1@1,4@2pi", "--out", str(tmp_path / "o")) == 2

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

    def test_poincare_given_weight(self, tmp_path):
        out = tmp_path / "o"
        assert run("poincare", "--w1", "1", "--w2", "3", "--out", str(out)) == 0
        row = (out / "poincare.csv").read_text().splitlines()[1].split(",")
        assert (float(row[0]), float(row[1])) == (1.0, 3.0)

    def test_telegrapher(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert run("telegrapher", "--sigma", "pc:1@pi,4@2pi", "--out", str(out)) == 0
        summary = (out / "telegrapher_summary.csv").read_text().splitlines()
        header = summary[0].split(",")
        values = dict(zip(header, summary[1].split(",")))
        assert float(values["gap"]) == pytest.approx(2.72831, abs=1e-3)
        assert float(values["alpha_bs"]) == pytest.approx(0.86845, abs=1e-3)
        assert "9 eigenvalues in the strip (certified count" in capsys.readouterr().out
        roots = (out / "telegrapher_roots.csv").read_text().splitlines()
        assert roots[0] == "re_gamma,im_gamma,abs_d" and len(roots) == 10
        assert all(float(row.split(",")[2]) < 1e-12 for row in roots[1:])

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
            ["poincare", "--w1", "1", "--w2", "1", "--scan-step", "10"],  # the scan lattice is fixed
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
            ["--w1", "1"],  # one of --w1/--w2 would be dropped
            ["--w2", "3"],
            ["--w1", "1", "--w2", "3", "--alpha", "9"],  # the weight is given
            ["--w1", "1", "--w2", "3", "--alpha", "9", "--improve"],
            ["--w1", "1", "--w2", "3", "--theta", "5"],  # read only by --improve
            ["--w1", "1", "--w2", "3", "--sigma", "const:3"],
            ["--w1", "1", "--w2", "3", "--theta", "5", "--alpha", "9", "--sigma", "const:3"],
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

    @pytest.mark.parametrize(
        "argv, code, message",
        [
            # the fit fails after the whole simulation
            (["simulate-2v", "--n", "64", "--t-final", "1", "--record-every", "8"], 3, "usable points"),
            # the constant of the alpha* weight is found, then the weight at alpha0 = 5 is not one
            (["poincare", "--sigma", "pc:1@pi,4@2pi", "--improve", "--alpha0", "5"], 2, "nonpositive"),
            (["simulate-2v", "--u0", "file:/nonexistent"], 2, "cannot parse field spec"),
            # --out names an existing file
            (["rates"], 2, "cannot write --out"),
            # 4/min w = 4e-4 lies below the first lattice point 1e-3
            (["poincare", "--w1", "10000", "--w2", "10000"], 3, "lam_max = 0.0004"),
            # c_min = 1/w = 3.3e-4 lies below the one scan point 1e-3 of (0, 4/w]
            (
                ["poincare", "--w1", "3000", "--w2", "3000"],
                3,
                "1/max w = 0.000333333 lies below the scan's first point 0.001",
            ),
            # non-finite numbers are refused as the flags are read
            (["simulate-2v", "--t-final", "nan"], 2, "--t-final: expected a finite number, got 'nan'"),
            (["simulate-2v", "--t-final", "inf"], 2, "--t-final: expected a finite number, got 'inf'"),
            (["simulate-2v", "--dt", "nan"], 2, "--dt: expected a finite number, got 'nan'"),
            (["simulate-3v", "--dt", "inf"], 2, "--dt: expected a finite number, got 'inf'"),
            (["poincare", "--w1", "nan", "--w2", "1"], 2, "--w1: expected a finite number"),
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
            (["simulate-2v", "--n", "0", "--u0", "sin"], 2, "a grid needs at least one node, got n = 0"),
        ],
    )
    def test_failed_run_writes_nothing(self, tmp_path, capsys, argv, code, message):
        (tmp_path / "one_cell.csv").write_text("x,value\n0,1\n0.5\n")
        rows = "".join(f"{x},1\n" for x in range(100, 36, -1))
        (tmp_path / "off_grid.csv").write_text("x,value\n" + rows)
        (tmp_path / "empty.csv").write_text("")
        random_band_limited(16, seed=1).to_csv(tmp_path / "n16.csv")
        argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
        out = tmp_path / "o"
        out_is_file = message == "cannot write --out"
        if out_is_file:
            out.write_text("kept")
        assert run(*argv, "--out", str(out)) == code
        err = capsys.readouterr().err
        assert message in err and len(err.splitlines()) == 1
        assert (out.read_text() == "kept") if out_is_file else not out.exists()


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
    # 3e10 records of RK4 steps at dt = 1e-9
    out = tmp_path / "o"
    proc = run_capped(out, "simulate-2v", "--n", "64", "--scheme", "rk4", "--dt", "1e-9", "--t-final", "30")
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [
        "error: 30000000001 records (30000000000 steps, one record every 1) "
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
    "w1, points, lam_max", [("1e-300", "4e+303", "4e+300"), ("1e-320", "inf", "inf")]
)
def test_scan_beyond_what_numpy_can_index_exits_three(tmp_path, w1, points, lam_max):
    # lam_max = 4/w1 puts the 1e-3 lattice past any array numpy can describe
    out = tmp_path / "o"
    proc = run_capped(out, "poincare", "--w1", w1, "--w2", "1")
    assert proc.returncode == 3
    assert proc.stderr.splitlines() == [
        f"numerical failure: scan grid of {points} points up to lam_max = {lam_max} "
        "exceeds the bound of 5.76e+17 scan points"
    ]
    assert not out.exists()


def test_contour_beyond_the_sample_bound_exits_three(tmp_path):
    # the strip's contour would take 125.7M samples, 959 MiB for their positions alone
    out = tmp_path / "o"
    proc = run_capped(out, "telegrapher", "--sigma", "pc:1e-6@pi,1e6@2pi")
    assert proc.returncode == 3
    assert proc.stderr.splitlines() == [
        "numerical failure: argument-principle count failed: over 2000000 samples on one contour"
    ]
    assert not out.exists()


class TestNyquistInvariant:
    """Both two-velocity schemes conserve sum_j (-1)^j u_j up to sign, so that mode never decays."""

    ARGV = ("simulate-2v", "--sigma", "const:1", "--n", "64", "--v0", "zero", "--t-final", "30")

    @pytest.fixture
    def no_simulation(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("simulated")

        monkeypatch.setattr(cli, "simulate_2v", refuse)

    @pytest.mark.parametrize("scheme", ["split", "rk4"])
    def test_nyquist_u0_exits_two_before_simulating(self, tmp_path, capsys, no_simulation, scheme):
        out = tmp_path / "o"
        assert run(*self.ARGV, "--u0", "cos:32", "--scheme", scheme, "--out", str(out)) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: --u0 has Nyquist component sum_j (-1)^j u_j / n = 1; "
            "the two-velocity schemes conserve it, so it never decays"
        ]
        assert not out.exists()

    @pytest.mark.parametrize("scheme", ["split", "rk4"])
    def test_nyquist_in_a_file_field_exits_two(self, tmp_path, capsys, no_simulation, scheme):
        x = 2 * np.pi * np.arange(64) / 64
        path = tmp_path / "u0.csv"
        GridFunction(np.sin(x) + (-1.0) ** np.arange(64)).to_csv(path)
        code = run(*self.ARGV, "--u0", f"file:{path}", "--scheme", scheme, "--out", str(tmp_path / "o"))
        assert code == 2
        assert "--u0 has Nyquist component sum_j (-1)^j u_j / n = 1;" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "u0, scheme",
        [("cos:31", "split"), ("sin", "split"), ("sin", "rk4"), ("random", "split"), ("random", "rk4")],
    )
    def test_data_without_it_still_runs(self, tmp_path, u0, scheme):
        assert run(*self.ARGV, "--u0", u0, "--scheme", scheme, "--out", str(tmp_path / "o")) == 0


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
