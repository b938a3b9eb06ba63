"""Per-layer tracing of qalg from outside the package.

`install` wraps public functions and methods of each layer by rebinding them
in every loaded qalg module that holds them (`from .x import f` binds a copy,
so rebinding only the defining module would miss callers). Nothing under
`src/` is edited.

Two kinds of wrapper:

- stage: records a span (operation, name, parent span, start, end) in memory,
  plus the time spent directly under it in kernel calls;
- kernel: high-frequency calls (multiply, Mat products, elimination) are
  timed and counted but fold into their enclosing stage span, so millions
  of them do not become spans.

Self time of a stage span is its duration minus its child spans and the
kernel time directly under it. `Tracer.dump` writes everything once, at
exit. Counts repeat exactly between runs on the same inputs; times do not.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter

STAGE, KERNEL, COUNT = "stage", "kernel", "count"

# (module, attribute, metric prefix, kind). Methods are "Class.method".
TARGETS = (
    ("qalg.cli", "main", "cli.main", STAGE),
    ("qalg.cli", "load_algebra", "cli.load_algebra", STAGE),
    ("qalg.algebra", "FDAlgebra.from_json_dict", "algebra.from_json_dict", STAGE),
    ("qalg.algebra", "FDAlgebra.validate", "algebra.validate", STAGE),
    ("qalg.algebra", "FDAlgebra.center", "algebra.center", STAGE),
    ("qalg.algebra", "quotient_by_ideal", "algebra.quotient_by_ideal", STAGE),
    ("qalg.algebra", "subalgebra_on", "algebra.subalgebra_on", STAGE),
    ("qalg.algebra", "FDAlgebra.multiply", "algebra.multiply", KERNEL),
    ("qalg.linalg", "rref", "linalg.rref", KERNEL),
    ("qalg.linalg", "kernel_basis", "linalg.kernel_basis", KERNEL),
    ("qalg.linalg", "rank", "linalg.rank", KERNEL),
    ("qalg.linalg", "solve_linear", "linalg.solve_linear", KERNEL),
    ("qalg.linalg", "minimal_polynomial", "linalg.minimal_polynomial", STAGE),
    ("qalg.linalg", "Mat.__mul__", "linalg.Mat.mul", KERNEL),
    ("qalg.linalg", "Mat.__init__", "linalg.Mat.init", COUNT),
    ("qalg.polyfactor", "factor_rational", "polyfactor.factor_rational", STAGE),
    ("qalg.structure", "jacobson_radical", "structure.jacobson_radical", STAGE),
    ("qalg.structure", "central_primitive_idempotents", "structure.central_primitive_idempotents", STAGE),
    ("qalg.structure", "wedderburn_decomposition", "structure.wedderburn_decomposition", STAGE),
    ("qalg.structure", "_matrix_size_search", "structure.size_search", STAGE),
    ("qalg.modules", "lift_idempotent_matrix", "modules.lift_idempotent_matrix", STAGE),
    ("qalg.modules", "projective_module", "modules.projective_module", STAGE),
    ("qalg.modules", "modules_isomorphic", "modules.modules_isomorphic", STAGE),
    ("qalg.edbounds", "bound_from_wedderburn", "edbounds.bound_from_wedderburn", STAGE),
)

# Functions with the global @cache: an equal but distinct algebra reaching
# one of them in a later operation would be answered from that cache.
CACHED = ("structure.jacobson_radical", "structure.central_primitive_idempotents", "structure.wedderburn_decomposition")


class Tracer:
    def __init__(self):
        self.op = 0
        self.stack: list[list] = []  # open frames: [kind, span index, kernel seconds]
        self.active: Counter = Counter()  # open frames per name
        self.calls: Counter = Counter()
        self.busy: Counter = Counter()  # wall seconds in outermost calls per name
        self.counts: Counter = Counter()
        self.seconds: Counter = Counter()  # timed counters that are not per-function busy time
        self.spans: list[list] = []  # [op, name, parent span, start, end, kernel seconds]
        self.seen: dict = {}  # algebra -> (op, the object first seen)

    def _enter(self, name: str, args) -> None:
        act = self.active
        if name in CACHED:
            a = args[0]
            first = self.seen.setdefault(a, (self.op, a))
            if first[0] < self.op and first[1] is not a:
                self.counts["structure.cross_op_repeats"] += 1
        elif name == "linalg.minimal_polynomial":
            if act["structure.central_primitive_idempotents"]:
                self.counts["structure.central_split.candidates"] += 1
            elif act["structure.wedderburn_decomposition"]:
                self.counts["structure.size_search.candidates"] += 1
        elif name == "algebra.multiply" and act["modules.lift_idempotent_matrix"]:
            self.counts["modules.lift.multiply_calls"] += 1
        elif name == "algebra.quotient_by_ideal" and args[1].dim == 0:
            self.counts["algebra.quotient_by_ideal.zero_ideal_calls"] += 1

    def _exit(self, name: str, args, result, seconds: float) -> None:
        act = self.active
        if name == "polyfactor.factor_rational":
            if (
                act["structure.size_search"]
                and not act["structure.central_primitive_idempotents"]
                and len(result.factors) >= 2
            ):
                self.counts["structure.size_search.splits"] += 1
        elif name == "linalg.rank" and act["modules.projective_module"]:
            self.seconds["modules.projective_module.rank_busy_s"] += seconds
        elif name == "modules.lift_idempotent_matrix":
            # Refinement ran exactly when the result differs from the
            # entrywise section lift it starts from.
            q, qp = args
            if result.entries != tuple(tuple(qp.lift(e) for e in row) for row in q.entries):
                self.counts["modules.lift.refined"] += 1

    def wrap(self, name: str, kind: str, fn):
        if kind == COUNT:
            calls = self.calls

            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return counted

        perf = time.perf_counter
        stack, active, calls, busy, spans = self.stack, self.active, self.calls, self.busy, self.spans
        enter, leave = self._enter, self._exit

        def timed(*args, **kwargs):
            calls[name] += 1
            enter(name, args)
            outer = not active[name]
            active[name] += 1
            parent = stack[-1] if stack else None
            idx = None
            if kind == STAGE:
                idx = len(spans)
                spans.append([self.op, name, parent[1] if parent else None, 0.0, 0.0, 0.0])
            frame = [kind, idx, 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                active[name] -= 1
                if outer:
                    busy[name] += t1 - t0
                if kind == STAGE:
                    span = spans[idx]
                    span[3], span[4], span[5] = t0, t1, frame[2]
                elif parent is not None and parent[0] == STAGE:
                    parent[2] += t1 - t0
            leave(name, args, result, t1 - t0)
            return result

        return timed

    def install(self) -> None:
        for mod_name in {t[0] for t in TARGETS}:
            importlib.import_module(mod_name)
        modules = [m for n, m in sys.modules.items() if n == "qalg" or n.startswith("qalg.")]
        for mod_name, attr, name, kind in TARGETS:
            home = sys.modules[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[meth]
                if isinstance(original, staticmethod):
                    setattr(cls, meth, staticmethod(self.wrap(name, kind, original.__func__)))
                else:
                    setattr(cls, meth, self.wrap(name, kind, original))
                continue
            original = getattr(home, attr)
            wrapped = self.wrap(name, kind, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

    def dump(self, path: str) -> None:
        """Write calls, busy time, counters and self time per stage name."""
        child = [0.0] * len(self.spans)
        for op, name, parent, t0, t1, _ in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        self_s: Counter = Counter()
        for i, (op, name, parent, t0, t1, kernel) in enumerate(self.spans):
            self_s[name] += (t1 - t0) - child[i] - kernel
        out = {
            "calls": dict(self.calls),
            "busy_s": dict(self.busy),
            "self_s": dict(self_s),
            "counts": dict(self.counts),
            "seconds": dict(self.seconds),
            "spans": self.spans,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(out, fh)


# Per-layer metrics: (metric, unit). `.calls` and `.busy_s` come from the
# wrapper of the same prefix, `.self_s` from the spans, the rest from counts.
LAYER_METRICS = (
    ("cli.load_algebra.busy_s", "s"),
    ("cli.main.busy_s", "s"),
    ("algebra.validate.calls", "count"),
    ("algebra.validate.busy_s", "s"),
    ("algebra.multiply.calls", "count"),
    ("algebra.multiply.busy_s", "s"),
    ("algebra.quotient_by_ideal.calls", "count"),
    ("algebra.quotient_by_ideal.zero_ideal_calls", "count"),
    ("algebra.quotient_by_ideal.busy_s", "s"),
    ("algebra.center.busy_s", "s"),
    ("algebra.subalgebra_on.busy_s", "s"),
    ("linalg.rref.calls", "count"),
    ("linalg.rref.busy_s", "s"),
    ("linalg.kernel_basis.calls", "count"),
    ("linalg.kernel_basis.busy_s", "s"),
    ("linalg.rank.calls", "count"),
    ("linalg.rank.busy_s", "s"),
    ("linalg.minimal_polynomial.calls", "count"),
    ("linalg.minimal_polynomial.busy_s", "s"),
    ("linalg.solve_linear.busy_s", "s"),
    ("linalg.Mat.mul.calls", "count"),
    ("linalg.Mat.mul.busy_s", "s"),
    ("linalg.Mat.init.calls", "count"),
    ("polyfactor.factor_rational.calls", "count"),
    ("polyfactor.factor_rational.busy_s", "s"),
    ("structure.jacobson_radical.self_s", "s"),
    ("structure.central_primitive_idempotents.self_s", "s"),
    ("structure.wedderburn_decomposition.busy_s", "s"),
    ("structure.central_split.candidates", "count"),
    ("structure.size_search.candidates", "count"),
    ("structure.size_search.busy_s", "s"),
    ("structure.size_search.split_ratio", "ratio"),
    ("structure.cross_op_repeats", "count"),
    ("modules.lift_idempotent_matrix.busy_s", "s"),
    ("modules.lift.multiply_calls", "count"),
    ("modules.lift.refined_share", "ratio"),
    ("modules.projective_module.busy_s", "s"),
    ("modules.projective_module.rank_busy_s", "s"),
    ("edbounds.bound_from_wedderburn.busy_s", "s"),
)


def layer_metrics(dumps: list[dict]) -> dict[str, tuple[float, str]]:
    """Sum the dumps of every traced process into the per-layer metrics."""
    total = {key: Counter() for key in ("calls", "busy_s", "self_s", "counts", "seconds")}
    for d in dumps:
        for key, counter in total.items():
            counter.update(d[key])
    calls, counts = total["calls"], total["counts"]
    derived = {
        "structure.size_search.split_ratio": _ratio(
            counts["structure.size_search.splits"], counts["structure.size_search.candidates"]
        ),
        "modules.lift.refined_share": _ratio(counts["modules.lift.refined"], calls["modules.lift_idempotent_matrix"]),
    }
    out = {}
    for metric, unit in LAYER_METRICS:
        prefix, _, field = metric.rpartition(".")
        if metric in derived:
            value = derived[metric]
        elif field in ("calls", "busy_s", "self_s"):
            value = total[field][prefix]
        elif metric in total["seconds"]:
            value = total["seconds"][metric]
        else:
            value = counts[metric]
        out[metric] = (value, unit)
    return out


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0
