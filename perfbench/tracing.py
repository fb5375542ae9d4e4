"""Per-layer tracing of gtlab from outside the program.

``Tracer.install`` replaces each public function of every gtlab module, and
each public method of the classes those modules define, with a timing
wrapper. It patches every name under which the function is bound in a gtlab
module, because callers look functions up by the name they imported
(``gtlab.solver.entropy_2v``, ``gtlab.cli.simulate_2v``). ``GridFunction``
construction is traced through its ``__post_init__``. ``uninstall`` restores
the originals.

Spans are aggregated as they are recorded: each op gets a root node, and each
node stands for every call made along one call path inside that op, holding
its call count, total time and the time covered by its child spans. Storing
each span separately would take millions of records per round. A layer's
self time is the sum over its nodes of total minus child time, so the self
times of all layers plus the benchmark's own share of each op add up to the
op's traced wall time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from time import perf_counter

LAYERS = ("torus", "entropy", "profiles", "rates", "modal", "solver", "poincare", "telegrapher", "cli")
CONSTRUCTOR = "GridFunction"


class Node:
    __slots__ = ("id", "name", "layer", "parent", "op", "calls", "total", "child", "errors", "children")

    def __init__(self, node_id, name, layer, parent, op):
        self.id = node_id
        self.name = name
        self.layer = layer
        self.parent = parent
        self.op = op
        self.calls = 0
        self.total = 0.0
        self.child = 0.0
        self.errors = {}
        self.children = {}

    @property
    def self_time(self) -> float:
        return self.total - self.child


class Tracer:
    """Span tree of the ops run while installed, plus counters fed by hooks."""

    def __init__(self):
        self.nodes = []
        self.current = None
        self.counters = {}
        self.captures = []
        self.ops = 0
        self._patches = []

    # -- spans ----------------------------------------------------------
    def _node(self, name, layer, parent, op):
        node = Node(len(self.nodes), name, layer, parent, op)
        self.nodes.append(node)
        return node

    def begin_op(self, label: str) -> Node:
        root = self._node(label, "bench", None, self.ops)
        self.ops += 1
        self.current = root
        self.captures = []
        return root

    def end_op(self, root: Node, seconds: float) -> None:
        root.calls += 1
        root.total += seconds
        self.current = None

    def count(self, name: str, amount=1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def _wrap(self, fn, name, layer, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer.current
            if parent is None:  # called outside any op: not traced
                return fn(*args, **kwargs)
            node = parent.children.get(name)
            if node is None:
                node = parent.children[name] = tracer._node(name, layer, parent, parent.op)
            tracer.current = node
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                kind = type(exc).__name__
                node.errors[kind] = node.errors.get(kind, 0) + 1
                if hook is not None:
                    hook(tracer, fn, args, kwargs, None, exc)
                raise
            finally:
                elapsed = perf_counter() - t0
                node.calls += 1
                node.total += elapsed
                parent.child += elapsed
                tracer.current = parent
            if hook is not None:
                hook(tracer, fn, args, kwargs, result, None)
            return result

        return wrapper

    # -- installation ---------------------------------------------------
    def install(self) -> None:
        modules = {layer: importlib.import_module(f"gtlab.{layer}") for layer in LAYERS}
        bound = [importlib.import_module("gtlab")] + list(modules.values())
        replacements = {}
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    qual = f"{layer}.{name}"
                    replacements[obj] = self._wrap(obj, qual, layer, HOOKS.get(qual))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._install_class(obj, layer)
        for mod in bound:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replacements:
                    self._patch(mod, name, replacements[obj])

    def _install_class(self, cls, layer) -> None:
        for name, attr in list(vars(cls).items()):
            if name == "__post_init__" and cls.__name__ == CONSTRUCTOR:
                wrapped = self._wrap(attr, f"{layer}.{CONSTRUCTOR}", layer, None)
            elif name.startswith("_"):
                continue
            elif inspect.isfunction(attr):
                qual = f"{layer}.{cls.__name__}.{name}"
                wrapped = self._wrap(attr, qual, layer, HOOKS.get(qual))
            elif isinstance(attr, classmethod):
                qual = f"{layer}.{cls.__name__}.{name}"
                wrapped = classmethod(self._wrap(attr.__func__, qual, layer, None))
            else:
                continue
            self._patch(cls, name, wrapped)

    def _patch(self, target, name, value) -> None:
        self._patches.append((target, name, vars(target)[name]))
        setattr(target, name, value)

    def uninstall(self) -> None:
        while self._patches:
            target, name, original = self._patches.pop()
            setattr(target, name, original)

    # -- summaries ------------------------------------------------------
    def layer_totals(self) -> dict:
        """{layer: (calls, self seconds)}; the constructor span is counted apart."""
        out = {}
        for node in self.nodes:
            calls, self_s = out.get(node.layer, (0, 0.0))
            counted = 0 if node.name.endswith(f".{CONSTRUCTOR}") or node.parent is None else node.calls
            out[node.layer] = (calls + counted, self_s + node.self_time)
        return out

    def named(self, *names) -> list:
        return [n for n in self.nodes if n.name in names]

    def export(self) -> list:
        return [
            {
                "id": n.id,
                "parent": None if n.parent is None else n.parent.id,
                "op": n.op,
                "name": n.name,
                "layer": n.layer,
                "calls": n.calls,
                "total_s": n.total,
                "self_s": n.self_time,
                "errors": n.errors,
            }
            for n in self.nodes
        ]


# ---------------------------------------------------------------------------
# hooks: counters read from the arguments and results of layer calls


def _simulate(tracer, fn, args, kwargs, result, exc):
    if result is None:
        return
    times = result.times
    steps = int(round((float(times[-1]) - float(times[0])) / result.dt))
    velocities = 3 if hasattr(result.final, "u3") else 2
    tracer.count("solver.steps", steps)
    tracer.count("solver.records", len(times))
    tracer.count("solver.cell_updates", velocities * result.final.n * steps)


def _matching_matrix(tracer, fn, args, kwargs, result, exc):
    lam = args[0] if args else kwargs["lam"]
    tracer.count("poincare.det_points", int(getattr(lam, "size", 1)))


def _weighted_poincare(tracer, fn, args, kwargs, result, exc):
    if isinstance(exc, MemoryError):
        tracer.count("poincare.mem_failures")


def _improved_alpha(tracer, fn, args, kwargs, result, exc):
    if result is not None:
        tracer.count("poincare.fixed_point_iterates", len(result.iterates))


def _telegrapher_gap(tracer, fn, args, kwargs, result, exc):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    nre, nim = bound.arguments["seeds"]
    tracer.count("telegrapher.newton_seeds", nre * nim)
    if exc is not None:
        tracer.count("telegrapher.failures")
        return
    tracer.count("telegrapher.roots", len(result.roots))
    problem = bound.arguments["problem"]
    tracer.captures.append(
        {
            "sigma": [problem.sigma1, problem.sigma2],
            "gap": result.gap,
            "roots": [[r.real, r.imag] for r in result.roots],
        }
    )


HOOKS = {
    "solver.simulate_2v": _simulate,
    "solver.simulate_3v": _simulate,
    "poincare.matching_matrix": _matching_matrix,
    "poincare.weighted_poincare": _weighted_poincare,
    "poincare.improved_alpha": _improved_alpha,
    "telegrapher.telegrapher_gap": _telegrapher_gap,
}
