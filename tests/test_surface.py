"""The public surface: nothing is exported that nothing calls.

Every public top-level function and class of a ``gtlab`` module must be used
by the program (``src/``, ``scripts/``, ``perfbench/``) outside its own
definition, or be listed below as a test oracle. A use is a name or an
attribute in the syntax tree, so imports, comments and strings do not count.
A use in another file counts only if that file also names the defining
module.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

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
    "modal.p_low_mode",  # the low-mode twist of the paper
    "modal.p_defective",  # the sigma = 2 twist of the paper
    "rates.gamma_bounds",  # alpha* as the maximum of gamma_max
    "telegrapher.matching_matrix",  # H against the literal 4x4 determinant
    "torus.antiderivative",  # operator identities on grid functions
    "torus.derivative",  # operator identities on grid functions
    "torus.inner",  # the normalised inner product
    "torus.norm",  # norm bounds on trajectories
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


def _public_definitions():
    """(module path, name, uses in the module outside the definition)."""
    for module in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(module.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                yield module, node.name, _uses(tree, skip=node)


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
    assert unused == []
    assert sorted(ORACLES - defined) == []


def test_cli_import_leaves_out_scipy_integrate():
    code = "import sys, gtlab.cli; print('scipy.integrate' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        timeout=60,
    )
    assert out.stdout.strip() == "False"
