#!/usr/bin/env python3
"""End-to-end benchmark of plopen, one workload per process.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a source checkout: plopen is imported from `src/`
there and from nowhere else. Each run generates its corpus from the seed,
sets up several times, then runs whole rounds over the corpus as a closed
loop with one client until `--seconds` of rounds have passed (and at least
`MIN_ROUNDS`). Times are in reference seconds: each wall time is divided
by the machine's slowdown at that moment, measured by `pace.py`. The answers
of each round are checked after it, outside the timed phase. The last line
of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones; with `--trace 1`
they are the per-layer ones from `spans.py`, and the spans are written to
`perfbench/out/`. `--workload all` runs every workload in its own process.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("certify", "check", "query")
DEFAULT_SEED = 1
RUN_SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]


def _quiet_call(cli, argv) -> tuple[int, str]:
    """plopen.cli.main in process, its report captured; a crash is an answer too."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    except Exception as exc:  # a crash is recorded and counted as failed
        return -1, f"{type(exc).__name__}: {exc}"
    return code, buf.getvalue()


class Workload:
    """A corpus, the invocations over it, and the check of each answer."""

    def __init__(self, seed: int, work: Path, tracer):
        self.seed = seed
        self.work = work
        self.tracer = tracer
        self.cli = importlib.import_module("plopen.cli")

    def root(self, name: str):
        return self.tracer.root_span(name) if self.tracer else contextlib.nullcontext()

    def answers(self, op) -> int:
        return 1

    def crashed(self, raw) -> bool:
        return raw[0] < 0

    def ops_label(self, i: int) -> str:
        return self.ops[i].path.name


class Certify(Workload):
    setup_reps = 5

    def setup(self, meter) -> None:
        from corpus import certify_items, write_items

        self.ops = write_items(certify_items(self.seed), self.work, meter)

    def invoke(self, w):
        with self.root("cli.main"):
            return _quiet_call(self.cli, ["whyburn", str(w.path)])

    def check(self, w, raw) -> list[str]:
        from checks import check_certify

        code, out = raw
        if code < 0:
            return [out]
        return check_certify(w, code, json.loads(out))

    def summary(self, results) -> dict:
        outcome: dict[str, int] = {}
        for code, out in results:
            report = json.loads(out) if code >= 0 else {}
            key = "certified" if report.get("certified") else f"rejected_stage{report.get('stage')}"
            outcome[key] = outcome.get(key, 0) + 1
        return {"maps": len(self.ops), "outcomes": outcome}


class Check(Workload):
    setup_reps = 5

    def setup(self, meter) -> None:
        from corpus import check_batches, write_items

        self.ops = [
            write_items(batch, self.work / f"batch-{b:02d}", meter)
            for b, batch in enumerate(check_batches(self.seed))
        ]

    def answers(self, batch) -> int:
        return len(batch)

    def ops_label(self, i: int) -> str:
        return self.ops[i][0].path.parent.name

    def invoke(self, batch):
        with self.root("cli.main"):
            return _quiet_call(self.cli, ["check-open", str(batch[0].path.parent), "--all"])

    def check(self, batch, raw) -> list[str]:
        from checks import check_batch

        code, out = raw
        if code < 0:
            return [out]
        return check_batch(batch, code, json.loads(out))

    def summary(self, results) -> dict:
        files = [w for batch in self.ops for w in batch]
        pieces = sum(1 for w in files if w.item.form == "pieces")
        return {"batches": len(self.ops), "files": len(files), "pieces_share": pieces / len(files)}


class Query(Workload):
    setup_reps = 3

    def ops_label(self, i: int) -> str:
        mi, kind, y = self.ops[i]
        return f"{self.written[mi].path.name} {kind} {y}"

    def setup(self, meter) -> None:
        from corpus import query_items, query_points, write_items

        instancefile = importlib.import_module("plopen.instancefile")
        self.degree = importlib.import_module("plopen.degree")
        self.plmap = importlib.import_module("plopen.plmap")
        plan = query_items(self.seed)
        written = write_items([item for item, _ in plan], self.work, meter)
        self.maps = []
        for w in written:
            start = time.perf_counter()
            self.maps.append(instancefile.document_to_plmap(instancefile.load_document(w.path))[0])
            meter.add(time.perf_counter() - start)
        self.written = written
        self.ops = query_points(self.seed, written, [counts for _, counts in plan])

    def crashed(self, raw) -> bool:
        return raw[0][0] == "error"

    def invoke(self, op):
        degree, plmap = self.degree, self.plmap
        f = self.maps[op[0]]
        y = op[2]
        with self.root("query"):
            try:
                try:
                    answer = ("degree", degree.degree(f, y))
                except degree.BoundaryImageError as exc:
                    answer = ("undefined", str(exc))
                return answer, plmap.fiber(f, y)
            except Exception as exc:  # a crash is recorded and counted as failed
                return ("error", f"{type(exc).__name__}: {exc}"), None

    def check(self, op, raw) -> list[str]:
        from checks import check_query

        answer, fib = raw
        if answer[0] == "error":
            return [answer[1]]
        return check_query(self.written[op[0]], op[1], op[2], answer, fib)

    def summary(self, results) -> dict:
        kinds: dict[str, int] = {}
        for mi, kind, _ in self.ops:
            kinds[kind] = kinds.get(kind, 0) + 1
        perturbed = sum(
            1
            for answer, _ in results
            if answer[0] == "degree" and answer[1].regular_point_used != answer[1].query_point
        )
        undefined = sum(1 for answer, _ in results if answer[0] == "undefined")
        infinite = sum(1 for _, fib in results if hasattr(fib, "segment"))
        total = len(results)
        return {
            "maps": len(self.maps),
            "queries": total,
            "kind_share": {k: v / total for k, v in kinds.items()},
            "perturbed_share": perturbed / total,
            "undefined_share": undefined / total,
            "infinite_fiber_share": infinite / total,
        }


CLASSES = {"certify": Certify, "check": Check, "query": Query}

# Rounds a run makes at least. Every operation's latency is the mean of its
# invocations over the rounds. On the shared 2-core machine of the README's
# reference figures the same round took from 4.3 to 6.9 s, and the mean over
# rounds steadied the figures more than their median or minimum did.
MIN_ROUNDS = 3


def tail_percent(invocations_per_round: int) -> int:
    """The highest percentile with at least ten of a round's operations beyond it."""
    return math.floor(100 * (1 - 10 / invocations_per_round))


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from corpus import clear_caches  # before tracing wraps the generators

    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    work = OUT / f"corpus-{name}-{os.getpid()}"
    workload = CLASSES[name](seed, work, tracer)
    try:
        setup_mark = tracer.mark() if tracer else None
        setup_times = []
        setup_wall = []
        for _ in range(workload.setup_reps):
            shutil.rmtree(work, ignore_errors=True)
            clear_caches()
            gc.collect()
            meter = pace.Meter()
            workload.setup(meter)
            setup_wall.append(meter.wall_s)
            setup_times.append(meter.reference_s)
        ops = workload.ops
        answers_per_round = sum(workload.answers(op) for op in ops)
        gc.collect()

        timed_mark = tracer.mark() if tracer else None
        latencies: list[list[float]] = [[] for _ in ops]
        wall: list[list[float]] = [[] for _ in ops]
        slowdowns = []
        verdicts: dict = {}
        failed = wrong = rounds = 0
        timed = 0.0
        clock = time.perf_counter
        while rounds < MIN_ROUNDS or timed < seconds:
            results = []
            meter = pace.Meter()
            round_start = clock()
            for i, op in enumerate(ops):
                if tracer:
                    tracer.begin_op(rounds * len(ops) + i)
                t0 = clock()
                raw = workload.invoke(op)
                spent = clock() - t0
                wall[i].append(spent)
                latencies[i].append(meter.add(spent))
                results.append(raw)
            timed += clock() - round_start
            rounds += 1
            slowdowns.append(meter.wall_s / meter.reference_s)
            if rounds == 1:
                summary = workload.summary(results)
            round_failed, round_wrong = _check_round(workload, results, verdicts)
            failed += round_failed
            wrong += round_wrong
        end_mark = tracer.mark() if tracer else None
    finally:
        shutil.rmtree(work, ignore_errors=True)

    per_op = [statistics.mean(samples) for samples in latencies]
    answers_per_s = answers_per_round / sum(per_op)
    percent = tail_percent(len(ops))
    summary.update(
        {
            "workload": name,
            "seed": seed,
            "trace": trace,
            "rounds": rounds,
            "timed_s": timed,
            "operations_per_round": len(ops),
            "tail_percent": percent,
            "answers_per_s": answers_per_s,
            "setup_reps_s": setup_times,
            "wall_setup_reps_s": setup_wall,
            "wall_answers_per_s": answers_per_round / sum(statistics.mean(t) for t in wall),
            "wall_latency_p50_s": statistics.median(statistics.mean(t) for t in wall),
            "round_slowdowns": slowdowns,
        }
    )
    print("# summary " + json.dumps(summary, sort_keys=True))
    if tracer:
        from spans import LAYER_METRICS

        values = tracer.layer_metrics(
            (setup_mark, timed_mark), (timed_mark, end_mark), len(setup_times), rounds
        )
        metrics = {m: {"value": values[m], "unit": unit} for m, unit, _ in LAYER_METRICS}
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{name}-seed{seed}.jsonl")
        forbidden = tracer.forbidden_calls(name, (timed_mark, end_mark))
        if forbidden:
            print(f"FAILED calls the {name} workload must not make: {forbidden}", file=sys.stderr)
            wrong += 1
    else:
        tail = statistics.quantiles(per_op, n=100, method="inclusive")[percent - 1]
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "answers_per_s": {"value": answers_per_s, "unit": "1/s"},
            "latency_p50_s": {"value": statistics.median(per_op), "unit": "s"},
            "latency_tail_s": {"value": tail, "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB",
            },
        }
    attempted = answers_per_round * rounds
    return {"correct": not wrong, "attempted": attempted, "failed": failed, "metrics": metrics}


def _check_round(workload, results, verdicts: dict) -> tuple[int, int]:
    """(failed answers, wrong answers) of one round.

    A check is a pure function of the operation and its answer, so an answer
    equal to one already checked for the same operation shares its verdict.
    """
    failed = wrong = 0
    for i, raw in enumerate(results):
        key = (i, raw)
        if key not in verdicts:
            verdicts[key] = problems = workload.check(workload.ops[i], raw)
            if problems:
                print(f"FAILED {workload.ops_label(i)}: {problems[:3]}", file=sys.stderr)
        if verdicts[key]:
            count = workload.answers(workload.ops[i])
            failed += count
            wrong += 0 if workload.crashed(raw) else count
    return failed, wrong


def _run_all(args) -> int:
    results = {}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name]
        argv += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
        for line in lines[:-1]:
            print(line)
        print(f"{name}: attempted {results[name]['attempted']}, failed {results[name]['failed']}")
        for metric, v in results[name]["metrics"].items():
            print(f"  {metric:34s} {v['value']:.6g} {v['unit']}")
    print(json.dumps(results, sort_keys=True))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    source = ROOT / "src" / "plopen" / "__init__.py"
    if not source.is_file():
        print(f"no plopen source at {source.parent}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import plopen

    if Path(plopen.__file__).resolve() != source.resolve():
        print(f"plopen imported from {plopen.__file__}, not {source}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(result, sort_keys=True, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
