"""Outside-in tracing of grlr for the benchmark's traced run.

The tracer replaces public functions of the ``src/grlr`` modules with
wrappers, from the benchmark's own code; grlr itself is not edited.  A
wrapper is installed in every ``grlr`` namespace that binds the function
(``bilinear_image`` is bound in ``linear``, ``decompose``, ``simplicity``
and ``cli``), and methods are replaced on their class.  ``grlr.__main__``
is never imported, because importing it runs the command line.

Span targets record a span per call: function, item id, span id, parent
span id, start and end (``perf_counter_ns``).  Spans stay in memory and
the harness writes them out when the run ends.  The scalar and grade
kernels (``fields``, ``groups``) and a few hot helpers are counted, not
timed: they run millions of times, so their time stays in the calling
span.  A layer's self time is its spans' durations minus the part of each
interval that child spans cover.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterable

# span kind -> "module:attribute" targets; "module:Class.method" for methods
SPANS: dict[str, tuple[str, ...]] = {
    "linear.rref": ("grlr.linear:rref",),
    "linear.subspace": ("grlr.linear:GradedSubspace.__init__",),
    "linear.bilinear_image": ("grlr.linear:bilinear_image",),
    "model.verify": ("grlr.model:verify_all",),
    "model.ideal_test": ("grlr.model:is_graded_ideal_L", "grlr.model:is_graded_ideal_A"),
    "connections.classes": (
        "grlr.connections:sigma_classes",
        "grlr.connections:lambda_classes",
        "grlr.connections:connection_graph_dot",
    ),
    "connections.connected": ("grlr.connections:sigma_connected", "grlr.connections:lambda_connected"),
    "decompose.decompose": ("grlr.decompose:decompose_L", "grlr.decompose:decompose_A"),
    "decompose.tight": ("grlr.decompose:check_tight",),
    "decompose.pair": ("grlr.decompose:pair_ideals",),
    "simplicity.closure": ("grlr.simplicity:ideal_closure_L", "grlr.simplicity:ideal_closure_A"),
    "simplicity.gr_simple": ("grlr.simplicity:gr_simple_L", "grlr.simplicity:gr_simple_A"),
    "simplicity.fine": ("grlr.simplicity:fine_decompose",),
    "simplicity.hypotheses": ("grlr.simplicity:check_hypotheses5",),
    "oracle.dfs": ("grlr.oracle:enumerate_connections",),
    "oracle.lattice": ("grlr.oracle:enumerate_graded_ideals_L", "grlr.oracle:enumerate_graded_ideals_A"),
    "oracle.search": ("grlr.oracle:hypothesis_search",),
    "constructions.generate": ("grlr.oracle:generate_instance", "grlr.catalog:build"),
    "files.load": ("grlr.files:load_instance",),
    "cli.command": ("grlr.cli:main",),
}

COUNTERS: dict[str, tuple[str, ...]] = {
    "fields.op": tuple(
        f"grlr.fields:Field.{op}" for op in ("add", "neg", "sub", "mul", "inv", "div", "is_zero")
    ),
    "fields.check": ("grlr.fields:Field.check",),
    "groups.mul": ("grlr.groups:GroupSpec.mul",),
    "groups.reduce": ("grlr.groups:GroupSpec.reduce",),
    "groups.check": ("grlr.groups:GroupSpec.check",),
    "linear.apply_sparse": ("grlr.linear:BilinearRule.apply_sparse",),
    "model.full": ("grlr.model:AlgebraInstance.full_L", "grlr.model:AlgebraInstance.full_A"),
}

# The harness's own span around each item and around set-up.
ROOT = "bench.item"


def _paths_listed(tracer: "Tracer", args: tuple, result: Any) -> None:
    tracer.events.append(("paths_listed", len(result)))


def _ideals_found(tracer: "Tracer", args: tuple, result: Any) -> None:
    tracer.events.append(("ideals_found", len(result)))


def _closure(tracer: "Tracer", args: tuple, result: Any) -> None:
    inst = args[0]
    key = (tracer.item, inst.name, result.ambient is inst.L, tuple(sorted(result.blocks.items())))
    tracer.events.append(("closure", key))


def _verdict(tracer: "Tracer", args: tuple, result: Any) -> None:
    tracer.events.append(("undecided", int(result.status == "undecided")))


HOOKS: dict[str, Callable[["Tracer", tuple, Any], None]] = {
    "oracle.dfs": _paths_listed,
    "oracle.lattice": _ideals_found,
    "simplicity.closure": _closure,
    "simplicity.gr_simple": _verdict,
}


def grlr_modules() -> list:
    """Every imported grlr module except ``grlr.__main__``."""
    return [
        mod for name, mod in sorted(sys.modules.items())
        if (name == "grlr" or name.startswith("grlr.")) and name != "grlr.__main__" and mod is not None
    ]


def resolve(target: str) -> tuple[Any, str, Any]:
    """``"module:attr"`` or ``"module:Class.method"`` -> (owner, attribute, original)."""
    module_name, path = target.split(":")
    owner: Any = sys.modules[module_name]
    *classes, attr = path.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    return owner, attr, vars(owner)[attr]


class Tracer:
    """Spans, counters and result events of one traced run.

    ``functions[i]`` is ``(kind, target)`` of the i-th wrapped function,
    ``calls[i]`` its call count and ``spans`` a list of
    ``(function, item, span id, parent span id, start ns, end ns)`` with
    parent -1 at the top.  Function 0 is the harness's root span.
    """

    def __init__(self) -> None:
        self.functions: list[tuple[str, str]] = [(ROOT, ROOT)]
        self.calls: list[int] = [0]
        self.spans: list[tuple[int, int, int, int, int, int]] = []
        self.events: list[tuple[str, Any]] = []
        self.item = -1
        self.items: list[str] = []
        self._stack: list[int] = []
        self._next_id = 0
        self._patches: list[tuple[Any, str, Any]] = []
        self.originals: dict[str, Any] = {}

    # -- wrappers --------------------------------------------------------

    def _span_wrapper(self, orig: Callable, idx: int, hook) -> Callable:
        tracer, spans, stack, calls, clock = self, self.spans, self._stack, self.calls, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id = sid + 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            calls[idx] += 1
            start = clock()
            try:
                result = orig(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((idx, tracer.item, sid, parent, start, end))
            if hook is not None:
                hook(tracer, args, result)
            return result

        return functools.update_wrapper(wrapper, orig)

    def _counter_wrapper(self, orig: Callable, idx: int) -> Callable:
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[idx] += 1
            return orig(*args, **kwargs)

        return functools.update_wrapper(wrapper, orig)

    def install(self) -> None:
        """Wrap every target in every grlr namespace that binds it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for table in (SPANS, COUNTERS):
            for targets in table.values():
                for target in targets:
                    importlib.import_module(target.split(":")[0])
        modules = grlr_modules()
        for table, timed in ((SPANS, True), (COUNTERS, False)):
            for kind, targets in table.items():
                for target in targets:
                    owner, attr, orig = resolve(target)
                    idx = len(self.functions)
                    self.functions.append((kind, target))
                    self.calls.append(0)
                    self.originals[target] = orig
                    wrapper = (
                        self._span_wrapper(orig, idx, HOOKS.get(kind)) if timed
                        else self._counter_wrapper(orig, idx)
                    )
                    if isinstance(owner, type):
                        self._patch(owner, attr, orig, wrapper)
                        continue
                    for mod in modules:
                        for name, value in list(vars(mod).items()):
                            if value is orig:
                                self._patch(mod, name, orig, wrapper)

    def _patch(self, owner: Any, name: str, orig: Any, wrapper: Callable) -> None:
        setattr(owner, name, wrapper)
        self._patches.append((owner, name, orig))

    def uninstall(self) -> None:
        """Put every original object back and check each one by identity."""
        for owner, name, orig in reversed(self._patches):
            setattr(owner, name, orig)
        stale = [f"{getattr(o, '__name__', o)}.{n}" for o, n, orig in self._patches if vars(o)[n] is not orig]
        self._patches = []
        if stale:
            raise RuntimeError(f"tracer left wrappers behind: {stale}")

    def unwrapped_bindings(self) -> list[str]:
        """Bindings in grlr namespaces that still hold an original target."""
        originals = {id(orig): target for target, orig in self.originals.items()}
        missed = []
        for mod in grlr_modules():
            for name, value in vars(mod).items():
                if id(value) in originals:
                    missed.append(f"{mod.__name__}.{name} ({originals[id(value)]})")
        return missed

    # -- spans -------------------------------------------------------------

    @contextmanager
    def root(self, name: str):
        """The harness's span around one item; its spans share the item id."""
        self.item = len(self.items)
        self.items.append(name)
        sid = self._next_id
        self._next_id = sid + 1
        self._stack.append(sid)
        self.calls[0] += 1
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append((0, self.item, sid, -1, start, end))

    @contextmanager
    def excluded(self):
        """Drop what the block records: used while the harness checks an output."""
        spans, events, calls, next_id = len(self.spans), len(self.events), list(self.calls), self._next_id
        try:
            yield
        finally:
            del self.spans[spans:]
            del self.events[events:]
            self.calls[:] = calls
            self._next_id = next_id

    # -- aggregation -------------------------------------------------------

    def kind_calls(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for (kind, _), n in zip(self.functions, self.calls):
            out[kind] += n
        return out

    def kind_self_s(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        selfs = self_times(self.spans)
        for span in self.spans:
            out[self.functions[span[0]][0]] += selfs[span[2]] / 1e9
        return out


def self_times(spans: Iterable[tuple[int, int, int, int, int, int]]) -> dict[int, int]:
    """Self time of each span: its duration minus the union of its
    children's intervals, clipped to its own interval."""
    spans = list(spans)
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for _, _, _, parent, start, end in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = {}
    for _, _, sid, _, start, end in spans:
        covered, reach = 0, start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out[sid] = (end - start) - covered
    return out


def layer_metrics(tracer: Tracer, traced_s: float, untraced_s: float) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of ``BENCHMARK.json`` as ``name -> (value, unit)``."""
    calls, self_s = tracer.kind_calls(), tracer.kind_self_s()
    events: dict[str, list] = defaultdict(list)
    for name, value in tracer.events:
        events[name].append(value)
    kind_of = [kind for kind, _ in tracer.functions]
    span_kind = {span[2]: kind_of[span[0]] for span in tracer.spans}
    tested = sum(
        1 for span in tracer.spans
        if kind_of[span[0]] == "model.ideal_test" and span_kind.get(span[3]) == "oracle.lattice"
    )
    closures = events["closure"]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m: dict[str, tuple[float, str]] = {}
    for name, kind in (
        ("fields.op_calls", "fields.op"),
        ("fields.check_calls", "fields.check"),
        ("groups.mul_calls", "groups.mul"),
        ("groups.reduce_calls", "groups.reduce"),
        ("groups.check_calls", "groups.check"),
        ("linear.rref_calls", "linear.rref"),
        ("linear.subspace_calls", "linear.subspace"),
        ("linear.bilinear_image_calls", "linear.bilinear_image"),
        ("linear.apply_sparse_calls", "linear.apply_sparse"),
        ("model.verify_calls", "model.verify"),
        ("model.full_calls", "model.full"),
        ("model.ideal_test_calls", "model.ideal_test"),
        ("connections.classes_calls", "connections.classes"),
        ("connections.connected_calls", "connections.connected"),
        ("simplicity.closure_calls", "simplicity.closure"),
        ("oracle.dfs_calls", "oracle.dfs"),
        ("oracle.lattice_calls", "oracle.lattice"),
        ("constructions.generate_calls", "constructions.generate"),
        ("files.load_calls", "files.load"),
        ("cli.command_calls", "cli.command"),
    ):
        m[name] = (calls[kind], "count")
    for name, kind in (
        ("linear.rref_self_s", "linear.rref"),
        ("linear.subspace_self_s", "linear.subspace"),
        ("linear.bilinear_image_self_s", "linear.bilinear_image"),
        ("model.verify_self_s", "model.verify"),
        ("model.ideal_test_self_s", "model.ideal_test"),
        ("connections.classes_self_s", "connections.classes"),
        ("connections.connected_self_s", "connections.connected"),
        ("decompose.decompose_self_s", "decompose.decompose"),
        ("decompose.tight_self_s", "decompose.tight"),
        ("decompose.pair_self_s", "decompose.pair"),
        ("simplicity.closure_self_s", "simplicity.closure"),
        ("simplicity.fine_self_s", "simplicity.fine"),
        ("simplicity.hypotheses_self_s", "simplicity.hypotheses"),
        ("oracle.dfs_self_s", "oracle.dfs"),
        ("oracle.lattice_self_s", "oracle.lattice"),
        ("oracle.search_self_s", "oracle.search"),
        ("constructions.generate_self_s", "constructions.generate"),
        ("files.load_self_s", "files.load"),
        ("cli.self_s", "cli.command"),
    ):
        m[name] = (self_s[kind], "s")
    m["simplicity.closure_distinct_ratio"] = (ratio(len(set(closures)), len(closures)), "ratio")
    m["simplicity.undecided_count"] = (sum(events["undecided"]), "count")
    m["oracle.paths_listed"] = (sum(events["paths_listed"]), "count")
    m["oracle.lattice_hit_ratio"] = (ratio(sum(events["ideals_found"]), tested), "ratio")
    m["trace.traced_s"] = (traced_s, "s")
    m["trace.untraced_s"] = (untraced_s, "s")
    m["trace.overhead_s"] = (traced_s - untraced_s, "s")
    return m
