"""Experiment harness.

Subcommands:

    simulate-2v    two-velocity run: trajectory CSV + fitted-vs-theory summary
    simulate-3v    three-velocity run, same outputs and printed summary table
    rates          theoretical rate bundles for a given sigma
    modal-report   per-mode eigenvalues and Lyapunov gaps (constant sigma)
    poincare       weighted Poincare constant, optionally the improved rate
    telegrapher    damped-wave spectral gap and the optimal-rate bundle
    appendix-a     three-rate comparison, by default for the piecewise {1, 4} profile
    rate-curve     sharp rate mu(sigma) over a sigma grid

Each subcommand takes only the flags its handler reads, plus --out and --config:

    simulate-2v    --sigma --n --dt --t-final --theta --eps --seed --plot
                   --scheme --u0 --v0 --record-every
    simulate-3v    --sigma --n --dt --t-final --theta --eps --seed --plot
                   --scheme --f1 --f2 --f3 --record-every
                   (--eps is accepted and ignored: the 3v rate has no eps)
    rates          --sigma --eps
    modal-report   --sigma --eps --kmax --plot
    poincare       --sigma --theta --alpha --weight --improve --alpha0
                   (--weight gives the weight, in the --sigma syntax; with it
                   --alpha is an error and --sigma, --theta need --improve,
                   as --alpha0 always does)
    telegrapher    --sigma
    appendix-a     --sigma
    rate-curve     --grid --plot

--sigma and --weight are const:V | pc:V@B,... | file:PATH. Any other
flag, and any abbreviation of a flag, is an error (exit 2). A number flag
takes only a finite number: nan and +-inf are exit 2. A file: field must
hold --n samples. --n is at most 2**20, and --kmax and the COUNT of --grid
are at most 100 000, each checked before any array is built. --seed is an
integer >= 0. An argument error is one line, like every other error. A
config file (--config PATH or --config=PATH) holds flat KEY = VALUE lines,
overridden by CLI flags; a key the subcommand does not take is an error
that names the file.

A handler computes and never writes: it returns the files of the run, by
name under --out, and the lines it prints. main creates --out, writes the
files and prints only once the handler has returned, so a run that fails
leaves no files. An --out that cannot be written is exit 2.
Exit codes: 0 success, 2 validation failure (or an unwritable --out),
3 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path

import numpy as np

from . import poincare as poincare_mod
from . import telegrapher as tele_mod
from .errors import NumericalError, ValidationError
from .modal import modal_report, spectral_gap
from .profiles import RelaxationProfile
from .rates import (
    SOURCE_BERNARD_SALVARANI,
    SOURCE_IMPROVED_POINCARE,
    SOURCE_PERTURBATIVE,
    alpha_star,
    check_conditions_2v,
    check_conditions_3v,
    needs_eps,
    rate_2v,
    rate_3v,
    theta_star,
)
from .solver import (
    MacroState2V,
    fit_decay_rate,
    fit_envelope_rate,
    simulate_2v,
    simulate_3v,
    to_macro3,
)
from .torus import GridFunction, nodes, random_band_limited, write_csv


def _table(header, rows) -> list:
    """The lines of an aligned table: numbers in .8g, exponent intact; None is blank."""
    cells = [header] + [
        ["" if v is None else v if isinstance(v, str) else format(v, ".8g") for v in r] for r in rows
    ]
    widths = [max(len(r[i]) for r in cells) for i in range(len(header))]
    return ["  ".join(c.ljust(w) for c, w in zip(r, widths)) for r in cells]


# ---------------------------------------------------------------------------
# initial data


def parse_field(spec: str, n: int, rng: np.random.Generator, zero_mean: bool = False) -> GridFunction:
    """'zero', 'one', 'const:C', 'sin[:k]', 'cos[:k]', 'random', 'file:PATH' (n samples)."""
    tag, _, body = spec.partition(":")
    try:
        if tag == "zero":
            return GridFunction(np.zeros(n))
        if tag == "one":
            return GridFunction(np.ones(n))
        if tag == "const":
            return GridFunction(np.full(n, float(body)))
        if tag in ("sin", "cos"):
            k = int(body) if body else 1
            fn = np.sin if tag == "sin" else np.cos
            return GridFunction(fn(k * nodes(n)))
        if tag == "random":
            seed = int(rng.integers(0, 2**31 - 1))
            return random_band_limited(n, seed=seed, zero_mean=zero_mean)
        if tag == "file":
            field = GridFunction.from_csv(body)
            if field.n != n:
                raise ValidationError(f"{body} holds {field.n} samples, but --n is {n}")
            return field
    except (ValueError, OSError) as exc:
        raise ValidationError(f"cannot parse field spec {spec!r}: {exc}") from exc
    raise ValidationError(f"unknown field spec {spec!r}")


# ---------------------------------------------------------------------------
# plotting (optional; the numeric pipeline never requires matplotlib)
#
# A handler returns a plot as its drawer, fn(plt, fig); main saves it.


def _plot_or_skip(fn, path) -> None:
    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print(f"plot skipped (matplotlib unavailable): {path}", file=sys.stderr)
        return
    fig = plt.figure(figsize=(6.0, 4.0))
    fn(plt, fig)
    fig.tight_layout()
    fig.savefig(path, format="svg")
    plt.close(fig)


def _decay_plot(traj, theory_rate, label):
    def draw(plt, fig):
        t = traj.times
        e = np.maximum(traj["entropy"], 1e-300)
        plt.semilogy(t, e, label="entropy")
        plt.semilogy(t, e[0] * np.exp(-theory_rate * t), "--", label=f"rate {theory_rate:.4g}")
        plt.xlabel("t")
        plt.ylabel(label)
        plt.legend()

    return draw


def _eigenvalue_plot(columns, gap):
    def draw(plt, fig):
        re = np.concatenate([columns["re_lam_minus"], columns["re_lam_plus"]])
        im = np.concatenate([columns["im_lam_minus"], columns["im_lam_plus"]])
        plt.scatter(re, im, s=12)
        plt.axvline(gap, linestyle="--", color="tab:red", label=f"gap {gap:.5g}")
        plt.xlabel("Re lambda")
        plt.ylabel("Im lambda")
        plt.legend()

    return draw


def _rate_curve_plot(sigmas, mus):
    def draw(plt, fig):
        plt.plot(sigmas, mus)
        plt.xlabel("sigma")
        plt.ylabel("mu(sigma)")

    return draw


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (files, lines), the files main writes
# under --out, by name, and the lines it prints


_SUMMARY = ["series", "theta", "theoretical_rate", "fitted_rate", "margin", "r_squared"]


def _simulate_command(args, rate, initial_state, simulate, series, label, extra_rows=None):
    """The body both simulate handlers share: simulate, fit the entropy, tabulate, plot.

    ``rate(profile)`` is the theoretical RateReport and ``initial_state(rng)``
    builds the initial state; ``extra_rows(traj, profile, rep)`` adds
    summary rows after the entropy row.
    """
    if args.n > _MAX_N:
        raise ValidationError(f"--n {args.n} exceeds the bound of {_MAX_N} grid nodes")
    profile = RelaxationProfile.parse(args.sigma)
    rep = rate(profile)
    traj = simulate(
        initial_state(np.random.default_rng(args.seed)),
        profile,
        args.t_final,
        dt=args.dt,
        scheme=args.scheme,
        theta=args.theta if args.theta is not None else rep.theta,
        record_every=args.record_every,
    )
    e_rate, e_r2 = fit_decay_rate(traj.times, traj["entropy"])
    summary = [(series, traj.theta, rep.rate, e_rate, e_rate - rep.rate, e_r2)]
    if extra_rows is not None:
        summary += extra_rows(traj, profile, rep)
    files = {"trajectory.csv": traj, "summary.csv": (_SUMMARY, summary)}
    if args.plot:
        files["entropy_decay.svg"] = _decay_plot(traj, rep.rate, label)
    return files, _table(["series", "theta", "theoretical", "fitted", "margin", "r2"], summary)


def _pair_norm_rows(traj, profile, rep) -> list:
    """Constant sigma: the pair norm against mu, and the (1 + t) envelope when defective."""
    if not profile.is_constant:
        return []
    n_rate, n_r2 = fit_decay_rate(traj.times, traj.pair_norm())
    rows = [("pair_norm", traj.theta, rep.mu, n_rate, n_rate - rep.mu, n_r2)]
    if rep.defective:
        env_rate, env_r2 = fit_envelope_rate(traj.times, traj.pair_norm())
        rows.append(("pair_norm_envelope", traj.theta, 1.0, env_rate, env_rate - 1.0, env_r2))
    return rows


def cmd_simulate_2v(args):
    return _simulate_command(
        args,
        lambda profile: rate_2v(profile, args.eps),
        lambda rng: MacroState2V(
            parse_field(args.u0, args.n, rng, zero_mean=True),
            parse_field(args.v0, args.n, rng),
        ),
        simulate_2v,
        "entropy",
        "E_theta",
        _pair_norm_rows,
    )


def cmd_simulate_3v(args):
    return _simulate_command(
        args,
        lambda profile: rate_3v(profile.sigma_min, profile.sigma_max),
        lambda rng: to_macro3(*(parse_field(f, args.n, rng) for f in (args.f1, args.f2, args.f3))),
        simulate_3v,
        "entropy3",
        "E3_theta",
    )


def cmd_rates(args):
    profile = RelaxationProfile.parse(args.sigma)
    rep = rate_2v(profile, args.eps)
    rows = [rep.csv_row()]
    if not profile.is_constant:
        check = check_conditions_2v(rep.theta, rep.rate, profile)
        rows.append(("perturbative-conditions", rep.theta, rep.rate, 1.0 if check else 0.0))
    rep3 = rate_3v(profile.sigma_min, profile.sigma_max)
    rows.append(rep3.csv_row())
    check3 = check_conditions_3v(rep3.theta, rep3.rate, profile)
    rows.append(("three-velocity-conditions", rep3.theta, rep3.rate, 1.0 if check3 else 0.0))
    header = ["source", "theta", "rate", "prefactor"]
    return {"rates.csv": (header, rows)}, _table(header, rows)


def _bounded_rows(count: int, flag: str) -> None:
    """Refuse a table of more than _MAX_ROWS rows before any is computed."""
    if count > _MAX_ROWS:
        raise ValidationError(f"{flag} asks for {count} rows; the bound is {_MAX_ROWS}")


def cmd_modal_report(args):
    _bounded_rows(args.kmax, "--kmax")
    profile = RelaxationProfile.parse(args.sigma)
    if not profile.is_constant:
        raise ValidationError("modal-report needs a constant sigma")
    s = profile.sigma_min
    columns = modal_report(s, args.kmax, eps=args.eps)
    gap = spectral_gap(s)
    files = {"modal_report.csv": (list(columns), list(zip(*(c.tolist() for c in columns.values()))))}
    if args.plot:
        files["eigenvalues.svg"] = _eigenvalue_plot(columns, gap.mu)
    return files, [f"spectral gap mu({s:g}) = {gap.mu:.8g}" + (" (defective)" if gap.defective else "")]


def _profile(flag: str, spec: str) -> RelaxationProfile:
    """RelaxationProfile.parse, with a bad spec's error led by the flag that gave it."""
    try:
        return RelaxationProfile.parse(spec)
    except ValidationError as exc:
        raise ValidationError(f"{flag}: {exc}") from exc


def cmd_poincare(args):
    weight_given = args.weight is not None
    unread = [
        flag
        for flag, value, read in (
            ("--alpha", args.alpha, not weight_given),
            ("--sigma", args.sigma, not weight_given or args.improve),
            ("--theta", args.theta, not weight_given or args.improve),
            ("--alpha0", args.alpha0, args.improve),
        )
        if value is not None and not read
    ]
    if unread:
        raise ValidationError(
            f"poincare would ignore {', '.join(unread)}: with --weight the weight is given, "
            "so --alpha is unused and --sigma and --theta serve only --improve, as --alpha0 does"
        )
    if not weight_given or args.improve:
        profile = _profile("--sigma", args.sigma if args.sigma is not None else _PAPER_PROFILE)
        s_min, s_max = profile.sigma_min, profile.sigma_max
        theta = args.theta if args.theta is not None else theta_star(s_min, s_max)
        # alpha* needs s_min < s_max, so it is computed only when a default uses it
        if (args.alpha is None and not weight_given) or (args.alpha0 is None and args.improve):
            a_star = alpha_star(s_min, s_max)
    if weight_given:
        weight = _profile("--weight", args.weight)
    else:
        alpha = args.alpha if args.alpha is not None else a_star
        weight = poincare_mod.weight_from_sigma(profile, theta, alpha)
    result = poincare_mod.weighted_poincare(weight)
    files = {
        "poincare.csv": (
            ["c_min", "c_omega_sq", "close_root_flag"],
            [(result.c_min, result.c_omega_sq, int(result.close_root_flag))],
        ),
        "weight.csv": (["x_end", "w"], weight.pieces),
    }
    lines = [
        f"weight ({weight.sigma_min:.6g}, {weight.sigma_max:.6g}): c_min = {result.c_min:.8g}, "
        f"C^2 = {result.c_omega_sq:.8g}, C = {result.c_omega:.8g} (min, max over {len(weight.pieces)} pieces)"
    ]
    if args.improve:
        alpha0 = args.alpha0 if args.alpha0 is not None else a_star
        imp = poincare_mod.improved_alpha(profile, theta, alpha0)
        files["iterates.csv"] = (["n", "alpha"], list(enumerate(imp.iterates)))
        lines.append(
            f"improved rate: alpha_max = {imp.alpha_max:.6g}, raised by {imp.iterations} bisection steps"
            + ("" if imp.converged else ", each one admissible up to the bracket's top")
        )
    return files, lines


def cmd_telegrapher(args):
    profile = RelaxationProfile.parse(args.sigma)
    problem = tele_mod.rescale_sigma(profile)
    result = tele_mod.telegrapher_gap(problem)
    rows = sorted(
        ((r.real, r.imag, abs(tele_mod.characteristic(r, problem))) for r in result.roots),
        key=lambda row: (row[0], row[1]),
    )
    rate = tele_mod.optimal_rate(problem, result)
    files = {
        "telegrapher_roots.csv": (["re_gamma", "im_gamma", "abs_d"], rows),
        "telegrapher_summary.csv": (
            ["l1_norm", "gap", "alpha_bs", "eig_re", "eig_im", "minimiser_real"],
            [
                (
                    problem.l1_norm,
                    result.gap,
                    rate,
                    result.eigenvalue.real,
                    result.eigenvalue.imag,
                    int(result.minimiser_is_real),
                )
            ],
        ),
    }
    return files, [
        f"gap = {result.gap:.6g} at gamma = {result.eigenvalue:.6g} "
        f"({'real' if result.minimiser_is_real else 'complex'}); alpha_BS = {rate:.6g}; "
        f"{result.count} eigenvalues in the strip (certified count, multiplicity included)"
    ]


def cmd_appendix_a(args):
    profile = RelaxationProfile.parse(args.sigma)
    s_min, s_max = profile.sigma_min, profile.sigma_max
    theta = theta_star(s_min, s_max)
    a_star = alpha_star(s_min, s_max)
    # the gap before the improved rate: a profile the search refuses costs no Poincare work
    problem = tele_mod.rescale_sigma(profile)
    optimal = tele_mod.optimal_rate(problem, tele_mod.telegrapher_gap(problem))
    imp = poincare_mod.improved_alpha(profile, theta, a_star)
    rows = [
        (SOURCE_PERTURBATIVE, a_star),
        (SOURCE_IMPROVED_POINCARE, imp.alpha_max),
        (SOURCE_BERNARD_SALVARANI, optimal),
    ]
    ordered = rows[0][1] < rows[1][1] < rows[2][1]
    return {"comparison.csv": (["method", "rate"], rows)}, [
        f"rates: perturbative {a_star:.6g} < improved {imp.alpha_max:.6g} "
        f"< optimal {optimal:.6g}: ordering {'holds' if ordered else 'VIOLATED'}"
    ]


def cmd_rate_curve(args):
    try:
        lo, hi, count = args.grid.split(":")
        lo, hi, count = float(lo), float(hi), int(count)
    except ValueError as exc:
        raise ValidationError(f"bad --grid spec {args.grid!r}; want LO:HI:COUNT") from exc
    if not (0 < lo < hi and count >= 2):
        raise ValidationError(f"need 0 < LO < HI and COUNT >= 2, got {args.grid!r}")
    _bounded_rows(count, "--grid COUNT")
    sigmas = np.linspace(lo, hi, count)
    sigmas = [s for s in sigmas if not needs_eps(s)]  # defective point not sampled
    rows = []
    for s in sigmas:
        gap = spectral_gap(float(s))
        rows.append((s, gap.mu, int(gap.defective)))
    files = {"rate_curve.csv": (["sigma", "mu", "defective"], rows)}
    if args.plot:
        files["rate_curve.svg"] = _rate_curve_plot([r[0] for r in rows], [r[1] for r in rows])
    return files, [f"tabulated mu(sigma) at {len(rows)} points into {Path(args.out) / 'rate_curve.csv'}"]


# ---------------------------------------------------------------------------
# parser


def _finite(text: str) -> float:
    """The argparse type of every number flag: a float that is neither nan nor +-inf."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _seed(text: str) -> int:
    """The argparse type of --seed: an integer >= 0 in decimal digits, as numpy's default_rng takes."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return int(text)


#: Every flag of every subcommand, with its add_argument keywords.
FLAGS = {
    "sigma": dict(default="const:1", help="const:V | pc:V@B,... | file:PATH"),
    "n": dict(type=int, default=256, help="grid resolution"),
    "dt": dict(type=_finite, help="time step (default: dx for split, dx/2 for rk4)"),
    "t-final": dict(type=_finite, default=30.0, help="final time"),
    "theta": dict(type=_finite, help="entropy twist weight"),
    "alpha": dict(type=_finite, help="decay rate in the weight (default alpha*)"),
    "eps": dict(type=_finite, help="epsilon for the defective sigma = 2"),
    "seed": dict(type=_seed, default=0, help="seed for random initial data"),
    "plot": dict(action="store_true", help="emit SVG plots"),
    "scheme": dict(choices=["split", "rk4"], default="split"),
    "record-every": dict(type=int, default=1),
    "u0": dict(default="zero", help="initial mass density preset"),
    "v0": dict(default="cos", help="initial flux density preset"),
    "f1": dict(default="one"),
    "f2": dict(default="cos"),
    "f3": dict(default="sin"),
    "kmax": dict(type=int, default=50),
    "weight": dict(help="the Poincare weight itself, in the --sigma syntax"),
    "improve": dict(action="store_true", help="bisect for the improved rate"),
    "alpha0": dict(type=_finite, help="admissible start of the --improve bisection (default alpha*)"),
    "grid": dict(default="0.05:10:200", help="LO:HI:COUNT"),
    "out": dict(default="out", help="output directory"),
    "config": dict(help="flat KEY = VALUE config file"),
}

#: The most rows a table subcommand computes: --kmax of modal-report, the COUNT
#: of rate-curve's --grid.
_MAX_ROWS = 100_000
#: The largest --n a simulation takes, checked before any array is built. A run
#: at the bound peaks at 446 MB resident (simulate-3v --scheme rk4, random data;
#: 263 MB split). At T = 1 it would need 5e11 cell updates, past the solver's bound.
_MAX_N = 2**20
_SIMULATE = ("sigma", "n", "dt", "t-final", "theta", "eps", "seed", "plot", "scheme", "record-every")
#: The paper's Appendix A profile, sigma = 1 then 4.
_PAPER_PROFILE = "pc:1@pi,4@2pi"
_PAPER_SIGMA = {"sigma": dict(default=_PAPER_PROFILE)}

#: name -> (handler, help, the flags the handler reads, changes to their FLAGS
#: entries). Every subcommand also takes --out and --config.
SUBCOMMANDS = {
    "simulate-2v": (cmd_simulate_2v, "run the two-velocity system", _SIMULATE + ("u0", "v0"), {}),
    "simulate-3v": (
        cmd_simulate_3v,
        "run the three-velocity system",
        _SIMULATE + ("f1", "f2", "f3"),
        {"eps": dict(help="accepted and ignored: the three-velocity rate has no eps")},
    ),
    "rates": (cmd_rates, "theoretical rate bundles for a profile", ("sigma", "eps"), {}),
    "modal-report": (
        cmd_modal_report,
        "per-mode eigenvalues and gaps",
        ("sigma", "eps", "kmax", "plot"),
        {"sigma": dict(default="const:5")},
    ),
    "poincare": (
        cmd_poincare,
        "weighted Poincare constant",
        ("sigma", "theta", "alpha", "weight", "improve", "alpha0"),
        # no default, so that an explicit --sigma can be told apart
        {"sigma": dict(default=None, help=f"{FLAGS['sigma']['help']} (default {_PAPER_PROFILE})")},
    ),
    "telegrapher": (cmd_telegrapher, "damped-wave spectral gap", ("sigma",), _PAPER_SIGMA),
    "appendix-a": (
        cmd_appendix_a, "three-rate comparison for pc:1@pi,4@2pi", ("sigma",), _PAPER_SIGMA
    ),
    "rate-curve": (cmd_rate_curve, "mu(sigma) over a grid", ("grid", "plot"), {}),
}


class _Parser(argparse.ArgumentParser):
    """An argument parser that raises its errors, for main to report in one line (exit 2)."""

    def error(self, message):
        raise ValidationError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """One subparser per subcommand, registering exactly its SUBCOMMANDS flags.

    Abbreviated flags are rejected, so every accepted flag is one a handler reads.
    Built once per process, on the first call: each parse_args fills a fresh
    namespace, so in-process callers of main share one parser.
    """
    parser = _Parser(prog="gtlab", description=__doc__.splitlines()[0], allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, help_text, flags, changes) in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        for flag in flags + ("out", "config"):
            p.add_argument(f"--{flag}", **{**FLAGS[flag], **changes.get(flag, {})})
        p.set_defaults(handler=handler)
    return parser


def _config_path(argv) -> str | None:
    """The PATH of ``--config PATH`` or ``--config=PATH``, if argv has one."""
    for i, token in enumerate(argv):
        if token == "--config":
            if i + 1 >= len(argv):
                raise ValidationError("--config needs a file path")
            return argv[i + 1]
        if token.startswith("--config="):
            return token.partition("=")[2]
    return None


def _apply_config(argv) -> list:
    """Fold a flat KEY = VALUE config file into argv as leading defaults."""
    path = _config_path(argv)
    if path is None:
        return list(argv)
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise ValidationError(f"cannot read config {path!r}: {exc}") from exc
    command = argv[0]
    takes = SUBCOMMANDS[command][2] + ("out",) if command in SUBCOMMANDS else None
    injected = []
    for line in lines:
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"config {path}: line is not KEY = VALUE: {line!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("_", "-")
        if takes is not None and key not in takes:
            raise ValidationError(f"config {path}: {command} takes no --{key}")
        value = value.strip()
        if value.lower() in ("true", "yes", "on"):
            injected.append(f"--{key}")
        else:
            injected.extend([f"--{key}", value])
    # config-provided values go first so explicit flags win
    return [argv[0]] + injected + argv[1:]


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(_apply_config(argv))
        files, lines = args.handler(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name, content in files.items():
            if isinstance(content, tuple):  # (header, rows)
                write_csv(out / name, *content)
            elif callable(content):  # a plot drawer
                _plot_or_skip(content, out / name)
            else:  # a Trajectory
                content.to_csv(out / name)
    except OSError as exc:
        print(f"error: cannot write --out {args.out}: {exc}", file=sys.stderr)
        return 2
    print(*lines, sep="\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
