"""Spans recorded by the benchmark around calls into plopen's public functions.

`Tracer.install` replaces each listed function, in every plopen module that
holds it, with a wrapper that records a span (name, start, end, parent,
operation id). Spans stay in memory until the run ends. Two very frequent
internal calls get a counter instead of a span: every Fourier-Motzkin solve
(`feasible._feasible_int`, the one entry point all probes share) and every
bounding-box test (`feasible.boxes_overlap`).

A span's self time is its duration minus the part of it that its child spans
cover. Spans opened in `check-open --all` pool threads have no parent in
their own thread; they are parented to the operation's root span, so the
root's self time is what the pool leaves uncovered.
"""

from __future__ import annotations

import importlib
import itertools
import json
import threading
import time
from collections import defaultdict

# Public functions wrapped in spans, by module. A span's layer is its module.
SPANS = {
    "generators": ("generate", "box_complex"),
    "instancefile": ("load_document", "document_to_plmap", "instance_digest"),
    "complexes": ("validate_complex",),
    "plmap": ("build_plmap", "ingest_pieces", "fiber", "sign_profile"),
    "openness": ("check_conditions", "branch_set", "openness_oracle", "coherently_oriented"),
    "degree": ("degree", "is_regular_value", "point_on_boundary_image"),
    "whyburn": (
        "make_ball_instance",
        "boundary_preimage_ok",
        "boundary_restriction_injective",
        "certify_ball_map",
    ),
    "feasible": (
        "hulls_intersect",
        "hull_leaves_affine_span",
        "relative_interiors_intersect",
        "relint_preimage_witness",
        "hull_contains",
        "segment_hits_hull",
        "constrained_hull_dim",
    ),
    "linalg": ("det_sign", "inverse", "null_space", "rank", "solve_square"),
}

# Per-layer metrics: (name, unit, better). Times are self times unless the
# README says otherwise; every metric is reported on every workload.
LAYER_METRICS = (
    [
        ("generators.generate_s", "s", "lower"),
        ("generators.box_complex_s", "s", "lower"),
        ("setup.load_s", "s", "lower"),
        ("setup.validate_s", "s", "lower"),
        ("instancefile.load_s", "s", "lower"),
        ("instancefile.parse_s", "s", "lower"),
        ("instancefile.digest_s", "s", "lower"),
        ("complexes.validate_s", "s", "lower"),
        ("complexes.validate_calls", "count", "lower"),
        ("plmap.build_s", "s", "lower"),
        ("plmap.ingest_s", "s", "lower"),
        ("plmap.fiber_s", "s", "lower"),
        ("plmap.fiber_calls", "count", "lower"),
        ("openness.check_conditions_s", "s", "lower"),
        ("openness.branch_set_s", "s", "lower"),
        ("openness.oracle_s", "s", "lower"),
        ("degree.degree_s", "s", "lower"),
        ("degree.is_regular_value_s", "s", "lower"),
        ("degree.is_regular_value_calls", "count", "lower"),
        ("degree.boundary_check_s", "s", "lower"),
        ("degree.boundary_check_calls", "count", "lower"),
        ("whyburn.ball_check_s", "s", "lower"),
    ]
    + [(f"whyburn.stage{k}_s", "s", "lower") for k in range(1, 6)]
    + [
        metric
        for name in SPANS["feasible"]
        for metric in ((f"feasible.{name}.calls", "count", "lower"), (f"feasible.{name}.s", "s", "lower"))
    ]
    + [
        ("feasible.probes", "count", "lower"),
        ("feasible.probe_s_mean", "s", "lower"),
        ("feasible.box_tests", "count", "lower"),
        ("feasible.box_pruned_ratio", "ratio", "higher"),
        ("linalg.calls", "count", "lower"),
        ("linalg.s", "s", "lower"),
        ("cli.self_s", "s", "lower"),
    ]
)

# Self-time metrics: metric name -> span names whose self times it sums.
_SELF_TIME = {
    "instancefile.load_s": ("instancefile.load_document",),
    "instancefile.parse_s": ("instancefile.document_to_plmap",),
    "instancefile.digest_s": ("instancefile.instance_digest",),
    "complexes.validate_s": ("complexes.validate_complex",),
    "plmap.build_s": ("plmap.build_plmap",),
    "plmap.ingest_s": ("plmap.ingest_pieces",),
    "plmap.fiber_s": ("plmap.fiber",),
    "openness.check_conditions_s": ("openness.check_conditions",),
    "openness.branch_set_s": ("openness.branch_set",),
    "openness.oracle_s": ("openness.openness_oracle",),
    "degree.degree_s": ("degree.degree",),
    "degree.is_regular_value_s": ("degree.is_regular_value",),
    "degree.boundary_check_s": ("degree.point_on_boundary_image",),
    "whyburn.ball_check_s": ("whyburn.make_ball_instance",),
    "linalg.s": tuple(f"linalg.{name}" for name in SPANS["linalg"]),
    "cli.self_s": ("cli.main",),
    **{f"feasible.{name}.s": (f"feasible.{name}",) for name in SPANS["feasible"]},
}
_CALLS = {
    "complexes.validate_calls": ("complexes.validate_complex",),
    "plmap.fiber_calls": ("plmap.fiber",),
    "degree.is_regular_value_calls": ("degree.is_regular_value",),
    "degree.boundary_check_calls": ("degree.point_on_boundary_image",),
    "linalg.calls": tuple(f"linalg.{name}" for name in SPANS["linalg"]),
    **{f"feasible.{name}.calls": (f"feasible.{name}",) for name in SPANS["feasible"]},
}
# Whyburn stages are stage timers: the whole time of the stage's call,
# including the FM and linalg work under it. Stage 4 has no public function;
# it is the time of certify_ball_map outside the other four stages.
_STAGE_SPANS = {
    1: ("whyburn.boundary_preimage_ok",),
    2: ("whyburn.boundary_restriction_injective",),
    3: ("openness.coherently_oriented", "plmap.sign_profile"),
    5: ("degree.degree",),
}


# Calls a workload must not make in its timed phase: span names, or a
# layer name and a dot for every span of that layer.
FORBIDDEN = {
    "certify": ("openness.branch_set", "openness.openness_oracle"),
    "check": ("whyburn.", "degree."),
    "query": ("complexes.validate_complex",),
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start, end, parent, op)
        self.probes: list[float] = []  # duration of each FM solve
        self.box_tests: list[bool] = []  # outcome of each bounding-box test
        self.op = None
        self.root = None
        self._ids = itertools.count()
        self._local = threading.local()

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span_wrapper(self, name, fn):
        clock = time.perf_counter
        record = self.spans.append

        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else self.root
            span_id = next(self._ids)
            stack.append(span_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                record((span_id, name, start, end, parent, self.op))

        traced.__wrapped__ = fn
        return traced

    def _probe_wrapper(self, fn):
        clock = time.perf_counter
        record = self.probes.append

        def counted(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record(clock() - start)

        return counted

    def _box_wrapper(self, fn):
        record = self.box_tests.append

        def counted(a, b):
            result = fn(a, b)
            record(result)
            return result

        return counted

    def install(self) -> None:
        """Wrap every listed function wherever a plopen module refers to it."""
        modules = [importlib.import_module(f"plopen.{m}") for m in (*SPANS, "cli")]
        modules.append(importlib.import_module("plopen"))
        feasible = importlib.import_module("plopen.feasible")
        replacements = {}
        for module_name, names in SPANS.items():
            module = importlib.import_module(f"plopen.{module_name}")
            for name in names:
                fn = getattr(module, name)
                replacements[id(fn)] = self._span_wrapper(f"{module_name}.{name}", fn)
        replacements[id(feasible._feasible_int)] = self._probe_wrapper(feasible._feasible_int)
        replacements[id(feasible.boxes_overlap)] = self._box_wrapper(feasible.boxes_overlap)
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = replacements.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)

    def begin_op(self, op) -> None:
        self.op = op

    def root_span(self, name: str):
        """The span of one operation, opened by the benchmark around its call.

        Spans with no open parent in their own thread (the first calls of
        the operation, and every call in a pool thread) become its children.
        """
        tracer = self

        class _Root:
            def __enter__(self):
                tracer.root = next(tracer._ids)
                self.start = time.perf_counter()
                return self

            def __exit__(self, *exc):
                tracer.spans.append((tracer.root, name, self.start, time.perf_counter(), None, tracer.op))
                tracer.root = None
                return False

        return _Root()

    def mark(self):
        """Positions in the records, to split the set-up from the timed phase."""
        return len(self.spans), len(self.probes), len(self.box_tests)

    # -- reporting ---------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w") as out:
            for span_id, name, start, end, parent, op in self.spans:
                out.write(json.dumps([span_id, name, start, end, parent, op]) + "\n")

    def forbidden_calls(self, workload: str, timed_range) -> dict[str, int]:
        """Spans of the timed phase that `FORBIDDEN` rules out, counted by name."""
        found: dict[str, int] = defaultdict(int)
        for span in self.spans[timed_range[0][0] : timed_range[1][0]]:
            name = span[1]
            if any(name == f or (f.endswith(".") and name.startswith(f)) for f in FORBIDDEN[workload]):
                found[name] += 1
        return dict(found)

    def layer_metrics(self, setup_range, timed_range, setup_reps: int, rounds: int) -> dict:
        """Per-layer metrics of one run.

        `generators.*` and `setup.*` are whole (inclusive) times per set-up
        repetition; every other metric is per round of the timed phase.
        """
        spans = self.spans
        setup = spans[setup_range[0][0] : setup_range[1][0]]
        timed = spans[timed_range[0][0] : timed_range[1][0]]
        values = {}

        inclusive = defaultdict(float)
        for _, name, start, end, _, _ in setup:
            inclusive[name] += end - start
        values["generators.generate_s"] = inclusive["generators.generate"] / setup_reps
        values["generators.box_complex_s"] = inclusive["generators.box_complex"] / setup_reps
        values["setup.load_s"] = (
            inclusive["instancefile.load_document"] + inclusive["instancefile.document_to_plmap"]
        ) / setup_reps
        values["setup.validate_s"] = inclusive["complexes.validate_complex"] / setup_reps

        self_time, calls, stage = _aggregate(timed)
        for metric, names in _SELF_TIME.items():
            values[metric] = sum(self_time[n] for n in names) / rounds
        for metric, names in _CALLS.items():
            values[metric] = sum(calls[n] for n in names) / rounds
        for k in range(1, 6):
            values[f"whyburn.stage{k}_s"] = stage[k] / rounds

        probes = self.probes[timed_range[0][1] : timed_range[1][1]]
        boxes = self.box_tests[timed_range[0][2] : timed_range[1][2]]
        values["feasible.probes"] = len(probes) / rounds
        values["feasible.probe_s_mean"] = sum(probes) / len(probes) if probes else 0.0
        values["feasible.box_tests"] = len(boxes) / rounds
        values["feasible.box_pruned_ratio"] = boxes.count(False) / len(boxes) if boxes else 0.0
        return values


def _covered(interval, children) -> float:
    """Length of the union of the child intervals, clipped to the interval."""
    lo, hi = interval
    total = 0.0
    reach = lo
    for start, end in sorted(children):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def _aggregate(spans):
    by_id = {s[0]: s for s in spans}
    children = defaultdict(list)
    for span_id, name, start, end, parent, _ in spans:
        if parent in by_id:
            children[parent].append((start, end, name))
    self_time = defaultdict(float)
    calls = defaultdict(int)
    stage = defaultdict(float)
    for span_id, name, start, end, _, _ in spans:
        kids = children.get(span_id, ())
        self_time[name] += (end - start) - _covered((start, end), [(s, e) for s, e, _ in kids])
        calls[name] += 1
        if name == "whyburn.certify_ball_map":
            stage_kids = []
            for s, e, kid in kids:
                for k, names in _STAGE_SPANS.items():
                    if kid in names:
                        stage[k] += e - s
                        stage_kids.append((s, e))
            stage[4] += (end - start) - _covered((start, end), stage_kids)
    return self_time, calls, stage
