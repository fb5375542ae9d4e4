"""The public surface: nothing is exported that nothing calls.

Every public top-level function and class of a ``gtlab`` module must be used
by the program (``src/``, ``scripts/``, ``perfbench/``) outside its own
definition, or be listed below as a test oracle. A use is a name or an
attribute in the syntax tree, so imports, comments and strings do not count.
A use in another file counts only if that file also names the defining
module.

Every oracle must be used, by the same rule, in a test file other than
this one: an oracle that no test reads is dead code.

Every private top-level function, class and constant of a ``gtlab`` module
must be read in ``src/`` outside its own definition: a helper that a
refactor leaves behind is dead code, whatever the tests still read. A read
is a name or an attribute loaded, so an import or an assignment is not one.

So must every public member of a public class: its methods, properties and
dataclass or NamedTuple fields. A use of a member is a read of an attribute
of that name, anywhere in the program outside the member's own definition.
Passing a field to the constructor, or storing it, is not a read. The types
are not known, so a read of a same-named member of another class counts.

Every flag a CLI subcommand registers must be read by its handler, and every
flag the handler reads must be registered. ``main`` reads --out for every
subcommand, since it alone writes the files, so --out counts as read by
``main``; --config is read from argv before parsing. Every number flag
refuses nan and +-inf in one line, with exit 2.

The numerical layers take a RelaxationProfile and an explicit twist from
their caller: ``solver``, ``entropy``, ``poincare`` and ``telegrapher``
import neither ``gtlab.rates`` nor ``gtlab.profiles``.

The benchmark's tracer (``perfbench/tracing.py``) wraps ``gtlab`` names by
the keys of its ``HOOKS`` table, and its telegrapher hook reads arguments
and fields by name. Every hooked name must exist, and so must what the hook
reads; the table is parsed, not imported.
"""

import argparse
import ast
import dataclasses
import importlib
import inspect
import math
import os
import re
import subprocess
import sys
from pathlib import Path

from gtlab.cli import FLAGS, SUBCOMMANDS, build_parser, main

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gtlab"
PROGRAM = [p for d in ("src", "scripts", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))]

#: Public names only the tests call. Each is the reference a test checks
#: the program's own arithmetic against, or a closed form the paper states.
ORACLES = {
    "entropy.entropy_2v",  # the record pass's 2v entropy column
    "entropy.entropy_3v",  # the record pass's 3v columns
    "entropy.entropy_evolution_rhs",  # the record pass's rhs column
    "entropy.equivalence_bounds",  # the entropy-norm sandwich
    "rates.gamma_bounds",  # alpha* as the maximum of gamma_max
    "torus.antiderivative",  # operator identities on grid functions
    "torus.derivative",  # operator identities on grid functions
    "torus.inner",  # the normalised inner product
    "torus.norm",  # norm bounds on trajectories
    # members: each checks the program's own output, and a run manifest would report it
    "rates.ConditionCheck.margins",  # the slack of each admissibility inequality
    "rates.ConditionCheck.failures",  # which admissibility inequalities fail
    "solver.Trajectory.entropy_increases",  # the entropy never grows along a run
    "solver.Trajectory.evolution_residuals",  # the recorded rhs is dE/dt
}


def _uses(tree, skip=None) -> set:
    """Names and attributes used in a tree, leaving out the subtree ``skip``."""
    inside = set() if skip is None else {id(n) for n in ast.walk(skip)}
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and id(node) not in inside
    }


def _modules_named(tree) -> set:
    """Every module path component a file imports, plus the names it uses."""
    out = _uses(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            out.update(node.module.split("."))
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            out.update(part for alias in node.names for part in alias.name.split("."))
    return out


def _reads(tree, skip) -> set:
    """Attribute names read in a tree, leaving out the subtree ``skip``."""
    inside = {id(n) for n in ast.walk(skip)}
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) and id(node) not in inside
    }


def _public_definitions():
    """(module path, name, uses in the module outside the definition)."""
    for module in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(module.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                yield module, node.name, _uses(tree, skip=node)


def _public_members(tree):
    """(class name, member name, definition) of the public members of public classes."""
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_"):
            for node in cls.body:
                if isinstance(node, ast.FunctionDef):
                    name = node.name
                elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                    name = node.target.id
                else:
                    continue
                if not name.startswith("_"):
                    yield cls.name, name, node


def test_every_public_name_has_a_caller():
    trees = {p: ast.parse(p.read_text()) for p in PROGRAM}
    elsewhere = {p: (_uses(tree), _modules_named(tree)) for p, tree in trees.items()}
    defined, unused = set(), []
    for module, name, own in _public_definitions():
        qualified = f"{module.stem}.{name}"
        defined.add(qualified)
        used = name in own or any(
            name in uses and module.stem in modules
            for p, (uses, modules) in elsewhere.items()
            if p != module
        )
        if not used and qualified not in ORACLES:
            unused.append(qualified)
    for module in sorted(PACKAGE.glob("*.py")):
        for cls, name, node in _public_members(trees[module]):
            qualified = f"{module.stem}.{cls}.{name}"
            defined.add(qualified)
            used = any(name in _reads(tree, skip=node) for tree in trees.values())
            if not used and qualified not in ORACLES:
                unused.append(qualified)
    assert unused == []
    assert sorted(ORACLES - defined) == []


def _loads(tree, skip=None) -> set:
    """Names and attributes loaded in a tree, leaving out the subtree ``skip``."""
    inside = set() if skip is None else {id(n) for n in ast.walk(skip)}
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load) and id(node) not in inside
    }


def _private_definitions(tree):
    """(name, definition) of a module's private top-level functions, classes and constants."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for target in targets for t in ast.walk(target) if isinstance(t, ast.Name)]
        else:
            continue
        yield from ((name, node) for name in names if name.startswith("_") and not name.startswith("__"))


def test_every_private_name_is_read_by_the_program():
    trees = {p: ast.parse(p.read_text()) for p in sorted((ROOT / "src").rglob("*.py"))}
    loads = {p: _loads(tree) for p, tree in trees.items()}
    unread = [
        f"{module.stem}.{name}"
        for module in sorted(PACKAGE.glob("*.py"))
        for name, node in _private_definitions(trees[module])
        if name not in _loads(trees[module], node) and not any(name in loads[p] for p in trees if p != module)
    ]
    assert unread == []


#: Modules that must not import LAYERED_ABOVE, and what they must not import.
LAYERED = ("solver", "entropy", "poincare", "telegrapher")
LAYERED_ABOVE = {"gtlab.rates", "gtlab.profiles"}


def _imported_modules(tree) -> set:
    """The gtlab modules a module of the package imports, relative imports resolved."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "gtlab" if node.level else ""
            module = ".".join(part for part in (base, node.module) if part)
            out.add(module)
            out.update(f"{module}.{alias.name}" for alias in node.names)
    return out


def test_numerical_layers_import_neither_rates_nor_profiles():
    wrong = {
        name: sorted(_imported_modules(ast.parse((PACKAGE / f"{name}.py").read_text())) & LAYERED_ABOVE)
        for name in LAYERED
    }
    assert {name: found for name, found in wrong.items() if found} == {}


def test_every_oracle_has_a_test():
    tests = [p for p in sorted((ROOT / "tests").rglob("*.py")) if p.name != Path(__file__).name]
    trees = [ast.parse(p.read_text()) for p in tests]
    used = [(_uses(tree), _modules_named(tree)) for tree in trees]
    untested = []
    for oracle in sorted(ORACLES):
        module, *_, name = oracle.split(".")
        if not any(name in uses and module in modules for uses, modules in used):
            untested.append(oracle)
    assert untested == []


#: Runs in a fresh interpreter, since this session has imported SciPy (the
#: tests use it as an oracle): every subcommand, each run once, runs on numpy
#: alone.
_SCIPY_PROBE = """
import contextlib, io, sys
from gtlab.cli import SUBCOMMANDS, main
out = sys.argv[1]
calls = [
    ["simulate-2v", "--n", "16", "--t-final", "10"],
    ["simulate-3v", "--n", "16", "--t-final", "10"],
    ["rates", "--sigma", "pc:1@pi,4@2pi"],
    ["modal-report", "--sigma", "const:5", "--kmax", "3"],
    ["rate-curve", "--grid", "0.5:5:4"],
    ["poincare", "--weight", "pc:1@pi,3@2pi"],
    ["telegrapher", "--sigma", "pc:1@pi,4@2pi"],
    ["appendix-a", "--sigma", "pc:1@pi,4@2pi"],
]
assert sorted(argv[0] for argv in calls) == sorted(SUBCOMMANDS)
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv + ["--out", out]) for argv in calls]
print(codes, sorted(m for m in sys.modules if m.partition(".")[0] == "scipy"))
"""


def test_numpy_only_subcommands_leave_out_scipy(tmp_path):
    out = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE, str(tmp_path)],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        timeout=120,
    )
    assert out.stdout.splitlines() == ["[0, 0, 0, 0, 0, 0, 0, 0] []"]


#: Flags a subcommand registers but never reads, each with its reason.
#: --config is read from argv before parsing, so it is left out throughout.
UNREAD = {
    # the decay-dense benchmark passes --eps to every const:2 call it makes
    ("simulate-3v", "eps"),
}


def _flags_read(func: ast.FunctionDef, param: int, functions: dict) -> set:
    """Flags read off parameter ``param`` of ``func``, following it into helpers.

    A read is ``args.name``; a helper is a function of the same module that
    gets the parameter as a positional argument. Any other use of the
    parameter fails, because the flags it reads could not be told.
    """
    name = func.args.args[param].arg
    read, followed = set(), set()
    for node in ast.walk(func):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id == name:
                read.add(node.attr.replace("_", "-"))
                followed.add(id(node.value))
        if isinstance(node, ast.Call):
            for i, arg in enumerate(node.args):
                if isinstance(arg, ast.Name) and arg.id == name:
                    callee = functions.get(getattr(node.func, "id", None))
                    assert callee is not None, f"{func.name} passes {name} to {ast.unparse(node.func)}"
                    read |= _flags_read(callee, i, functions)
                    followed.add(id(arg))
    for node in ast.walk(func):
        if isinstance(node, ast.Name) and node.id == name:
            assert id(node) in followed, f"{func.name} uses {name} at line {node.lineno}"
    return read


def test_every_cli_flag_has_a_reader():
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    functions = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    # main reads args.handler, which set_defaults stores, and the flags it serves itself
    read_by_main = {
        node.attr.replace("_", "-")
        for node in ast.walk(functions["main"])
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "args"
    } - {"handler"}
    assert read_by_main == {"out"}
    parser = build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    wrong = {}
    for command, sub in commands.choices.items():
        registered = {
            opt[2:] for a in sub._actions for opt in a.option_strings if opt.startswith("--")
        } - {"help", "config"}
        read = _flags_read(functions[sub.get_default("handler").__name__], 0, functions) | read_by_main
        unread = {flag for cmd, flag in UNREAD if cmd == command}
        if registered - read != unread or read - registered:
            wrong[command] = {
                "registered, not read": sorted(registered - read - unread),
                "read, not registered": sorted(read - registered),
                "listed unread, but read": sorted(unread & read),
            }
    assert wrong == {}


def test_every_number_flag_refuses_non_finite_values(tmp_path, capsys):
    """Every flag with a number type, read from FLAGS, so a new one is covered too."""
    out = tmp_path / "o"
    wrong, checked = [], set()
    for command, (_, _, flags, _) in SUBCOMMANDS.items():
        for flag in (f for f in flags if FLAGS[f].get("type") is not None):
            for value in ("nan", "inf", "-inf"):
                code = main([command, f"--{flag}={value}", "--out", str(out)])
                err = capsys.readouterr().err
                one_line = err.startswith(f"error: argument --{flag}: ") and len(err.splitlines()) == 1
                if code != 2 or not one_line or out.exists():
                    wrong.append((command, flag, value, code, err))
                checked.add(flag)
    assert wrong == []
    assert checked == {flag for flag, kw in FLAGS.items() if kw.get("type") is not None}


#: hooked names the program no longer defines: the count that replaced the lattice
#: scan left poincare.matching_matrix to the tests, and its hook counts nothing
DEAD_HOOKS = {"poincare.matching_matrix"}


def test_benchmark_hooks_find_their_names():
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
    table = next(
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "HOOKS" for t in node.targets)
    )
    hooked = {key.value for key in table.keys}
    assert DEAD_HOOKS <= hooked
    for name in sorted(hooked):
        module, attr = name.split(".", 1)
        assert hasattr(importlib.import_module(f"gtlab.{module}"), attr) != (name in DEAD_HOOKS), name

    # the telegrapher hook binds the call, applies the defaults and reads seeds as two counts,
    # then the problem's sigma1 and sigma2 (its first and last piece) and the result's gap and roots
    from gtlab.telegrapher import GapResult, TelegrapherProblem, telegrapher_gap

    problem = TelegrapherProblem(((0.5, math.pi), (0.5, 4.0 * math.pi)))
    bound = inspect.signature(telegrapher_gap).bind(problem)
    bound.apply_defaults()
    nre, nim = bound.arguments["seeds"]
    assert all(isinstance(n, int) and n > 0 for n in (nre, nim))
    assert (bound.arguments["problem"].sigma1, bound.arguments["problem"].sigma2) == (math.pi, 4.0 * math.pi)
    assert {"gap", "roots"} <= {f.name for f in dataclasses.fields(GapResult)}


def test_documented_flags_are_the_registered_ones():
    registered = {name: {f"--{flag}" for flag in spec[2]} for name, spec in SUBCOMMANDS.items()}
    # cli.py's docstring: "    name    --flags", then lines of more --flags, and lines of prose
    doc = importlib.import_module("gtlab.cli").__doc__
    documented = {}
    for line in doc.split("plus --out and --config:\n\n")[1].split("\n\n")[0].splitlines():
        words = line.split()
        if words[0] in SUBCOMMANDS:
            name = words.pop(0)
        if all(re.fullmatch(r"--[a-z0-9-]+", word) for word in words):
            documented.setdefault(name, set()).update(words)
    assert documented == registered
    # the README's table: | `name`, `name` | `--flags` (prose) |
    documented = {}
    for line in (ROOT / "README.md").read_text().splitlines():
        cells = line.split("|")[1:-1]
        names = re.findall(r"`([^`]+)`", cells[0]) if len(cells) == 2 else []
        if names and set(names) <= set(SUBCOMMANDS):
            flags = re.findall(r"--[a-z0-9-]+", " ".join(re.findall(r"`([^`]+)`", cells[1])))
            for name in names:
                documented.setdefault(name, set()).update(flags)
    assert documented == registered
