"""Spans around listdec's public functions, for the traced benchmark run.

Each target function is replaced, in every listdec module (and the package
itself) that binds it by name, with a wrapper that records a span: wall time,
self time (wall time minus the traced spans inside it) and the minor page
faults taken inside it.  A target that no longer exists is reported absent;
the run goes on without it.  Spans are kept in memory and written out when
the run ends.
"""

from __future__ import annotations

import functools
import resource
import sys
import time
from collections import defaultdict

PACKAGE = "listdec"


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


class Tracer:
    def __init__(self):
        self.op = -1  # -1 while setting up; ops are numbered from 0
        self.stack: list[list[float]] = []
        self.spans: list[tuple] = []
        # (phase, span name) -> [calls, wall s, self s, faults]; phase is "setup" or "ops"
        self.stats: dict = defaultdict(lambda: [0, 0.0, 0.0, 0])
        self.counters: dict = defaultdict(float)
        self.installed: set[str] = set()
        self.missing: set[str] = set()

    @property
    def phase(self) -> str:
        return "setup" if self.op < 0 else "ops"

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[self.phase, name] += amount

    def span(self, name, fn, on_exit=None):
        """Wrap fn in a span called name; on_exit sees the call and its result."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children = [0.0]
            self.stack.append(children)
            faults0 = minor_faults()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                faults = minor_faults() - faults0
                self.stack.pop()
                wall = t1 - t0
                if self.stack:
                    self.stack[-1][0] += wall
                st = self.stats[self.phase, name]
                st[0] += 1
                st[1] += wall
                st[2] += wall - children[0]
                st[3] += faults
                self.spans.append((name, self.op, len(self.stack), t0, t1, faults))
            if on_exit is not None:
                on_exit(self, args, kwargs, result, wall)
            return result

        return traced

    def install(self, module: str, attr: str, name=None, on_exit=None,
                adapt=None, only_in: str | None = None) -> None:
        """Wrap listdec.module.attr (attr may be Class.method) wherever it is
        bound by name; `only_in` limits the rebinding to one module, `adapt`
        turns fn into the function that is actually wrapped."""
        span_name = name or f"{module}.{attr}"
        owner = sys.modules.get(f"{PACKAGE}.{module}")
        cls_name, _, method = attr.rpartition(".")
        holder = getattr(owner, cls_name, None) if cls_name else owner
        original = getattr(holder, method, None)
        if original is None:
            self.missing.add(span_name)
            return
        self.installed.add(span_name)
        wrapped = self.span(span_name, adapt(self, original) if adapt else original, on_exit)
        if cls_name:
            setattr(holder, method, wrapped)
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            if only_in is not None and mod_name != f"{PACKAGE}.{only_in}":
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)

    @property
    def absent(self) -> set[str]:
        return self.missing - self.installed


def _scatter_exit(tracer, args, kwargs, result, wall):
    words = args[0] if args else kwargs["words"]
    ball = args[1] if len(args) > 1 else kwargs["ball"]
    tracer.count("listsize.scatter_table.increments", len(words) * len(ball))
    tracer.count("listsize.scatter_table.table_mib", result.nbytes / 2**20)


def _table_family_exit(tracer, args, kwargs, result, wall):
    code = args[0] if args else kwargs["code"]
    family = "linear" if type(code).__name__ == "LinearCode" else "uniform"
    tracer.count(f"secondmoment.table_{family}_ms", wall * 1e3)


def _guided_exit(tracer, args, kwargs, result, wall):
    _, trace = result
    accepted = len(trace.records) - 1
    tracer.count("constructors.guided.accepted", accepted)
    tracer.count("constructors.guided.candidates", accepted + trace.total_retries)


def _mt_exit(tracer, args, kwargs, result, wall):
    tracer.count("constructors.mt.rounds", result.rounds)
    tracer.count("constructors.mt.resampled", sum(len(e.message_indices) for e in result.events))
    tracer.count("constructors.mt.passes", result.rounds + 1)  # one table build per pass


def _count_evaluations(tracer, fn):
    """certified_* take interval builders; count how often the left one is
    evaluated, so precision escalations show as extra evaluations."""

    def certified(lhs, rhs, *args, **kwargs):
        def counted(ctx):
            tracer.count("precise.certified.evaluations")
            return lhs(ctx)

        return fn(counted, rhs, *args, **kwargs)

    return certified


# (module, attribute, options); span names default to module.attribute.
TARGETS = [
    ("gf2", "ball_masks", {}),
    ("gf2", "SpanBasis.enumerate", {}),
    ("listsize", "scatter_table", {"on_exit": _scatter_exit}),
    ("listsize", "profile_from_table", {}),
    ("listsize", "potential", {}),
    ("listsize", "certify", {}),
    ("listsize", "recount_center", {}),
    ("listsize", "pair_sum_weights", {}),
    ("listsize", "step_check_from_table", {}),
    ("precise", "with_mp", {}),
    ("precise", "certified_less", {"name": "precise.certified", "adapt": _count_evaluations}),
    ("precise", "certified_le", {"name": "precise.certified", "adapt": _count_evaluations}),
    ("constructors", "potential_guided_code", {"on_exit": _guided_exit}),
    ("constructors", "moser_tardos_construct", {"on_exit": _mt_exit}),
    ("constructors", "lll_condition", {}),
    ("listsize", "list_size_table", {"name": "secondmoment.list_size_table",
                                     "on_exit": _table_family_exit, "only_in": "secondmoment"}),
    ("secondmoment", "separation_experiment", {}),
    ("rankmetric", "certify_rank", {}),
    ("rankmetric", "check_rank_potential_step", {}),
    ("rankmetric", "rank_ball_masks", {}),
]


def install_all(tracer: Tracer) -> None:
    for module, attr, options in TARGETS:
        tracer.install(module, attr, **options)


def layer_metrics(tracer: Tracer, op_walls: list[float], op_faults: list[int]):
    """Per-op layer metrics of a traced run, as ({name: (value, unit)}, absent
    metric names).  Self times of all spans plus op.untraced_ms add up to
    op.mean_ms."""
    ops = len(op_walls)
    stats = {name: st for (phase, name), st in tracer.stats.items() if phase == "ops"}
    counters = {name: v for (phase, name), v in tracer.counters.items() if phase == "ops"}
    metrics: dict[str, tuple[float, str]] = {}
    absent: list[str] = []

    def put(metric, span, value, unit):
        if span in tracer.absent:
            absent.append(metric)
            value = 0.0
        metrics[metric] = (float(value), unit)

    def span_metrics(span, *fields):
        calls, _, self_s, faults = stats.get(span, (0, 0.0, 0.0, 0))
        for field in fields:
            value = {"self_ms": self_s * 1e3, "calls": calls, "faults": faults}[field]
            put(f"{span}.{field}", span, value / ops, {"self_ms": "ms"}.get(field, "count"))

    span_metrics("gf2.ball_masks", "self_ms")
    span_metrics("gf2.SpanBasis.enumerate", "self_ms")
    span_metrics("listsize.scatter_table", "self_ms", "calls", "faults")
    for name, unit in (("increments", "count"), ("table_mib", "MiB")):
        put(f"listsize.scatter_table.{name}", "listsize.scatter_table",
            counters.get(f"listsize.scatter_table.{name}", 0) / ops, unit)
    span_metrics("secondmoment.list_size_table", "self_ms")
    for family in ("linear", "uniform"):
        put(f"secondmoment.table_{family}_ms", "secondmoment.list_size_table",
            counters.get(f"secondmoment.table_{family}_ms", 0) / ops, "ms")
    span_metrics("secondmoment.separation_experiment", "self_ms")
    span_metrics("listsize.profile_from_table", "self_ms", "calls", "faults")
    span_metrics("listsize.potential", "self_ms", "calls")
    span_metrics("precise.with_mp", "self_ms", "calls")
    span_metrics("constructors.potential_guided_code", "self_ms")
    candidates = counters.get("constructors.guided.candidates", 0)
    put("constructors.guided.candidates", "constructors.potential_guided_code", candidates / ops, "count")
    put("constructors.guided.accept_ratio", "constructors.potential_guided_code",
        counters.get("constructors.guided.accepted", 0) / candidates if candidates else 0, "ratio")
    span_metrics("constructors.moser_tardos_construct", "self_ms")
    for name in ("rounds", "resampled"):
        put(f"constructors.mt.{name}", "constructors.moser_tardos_construct",
            counters.get(f"constructors.mt.{name}", 0) / ops, "count")
    passes = counters.get("constructors.mt.passes", 0)
    mt_wall = stats.get("constructors.moser_tardos_construct", (0, 0.0))[1]
    put("constructors.mt.round_ms", "constructors.moser_tardos_construct",
        mt_wall * 1e3 / passes if passes else 0, "ms")
    span_metrics("constructors.lll_condition", "self_ms")
    span_metrics("listsize.certify", "self_ms")
    span_metrics("listsize.recount_center", "self_ms")
    span_metrics("listsize.pair_sum_weights", "self_ms", "faults")
    span_metrics("listsize.step_check_from_table", "self_ms")
    span_metrics("rankmetric.certify_rank", "self_ms")
    span_metrics("rankmetric.check_rank_potential_step", "self_ms")
    span_metrics("rankmetric.rank_ball_masks", "self_ms")
    setup = tracer.stats.get(("setup", "rankmetric.rank_ball_masks"), (0, 0.0))
    put("rankmetric.rank_ball_masks.setup_ms", "rankmetric.rank_ball_masks", setup[1] * 1e3, "ms")
    span_metrics("precise.certified", "self_ms", "calls")
    put("precise.certified.evaluations", "precise.certified",
        counters.get("precise.certified.evaluations", 0) / ops, "count")

    op_ms = sorted(w * 1e3 for w in op_walls)
    mean_ms = sum(op_ms) / ops
    self_ms = sum(st[2] for st in stats.values()) * 1e3 / ops
    metrics["op.mean_ms"] = (mean_ms, "ms")
    metrics["op.p50_ms"] = (op_ms[ops // 2] if ops % 2 else (op_ms[ops // 2 - 1] + op_ms[ops // 2]) / 2, "ms")
    metrics["op.untraced_ms"] = (mean_ms - self_ms, "ms")
    metrics["op.faults"] = (sum(op_faults) / ops, "count")
    metrics["trace.spans"] = (sum(st[0] for st in stats.values()) / ops, "count")
    return metrics, absent
