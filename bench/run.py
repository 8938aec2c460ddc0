#!/usr/bin/env python3
"""gfermat benchmark: end-to-end workloads and a traced per-layer run.

    python3 bench/run.py --workload orbits --seed 1 --seconds 20 --trace 0

One process, one client, closed loop: each operation starts when the
previous one ends (the ``cli`` workload runs one child at a time).  A run
builds pass 0 from the seed, warms up one operation of each kind, then runs
whole passes -- each with fresh inputs from (seed, pass index) -- until
``--seconds`` have passed and at least ``MIN_PASSES`` passes are done.
Oracles run between passes, outside the timed region.

Times are reported at a fixed host speed.  The benchmark pins itself (and
so its children) to one CPU and, between every two operations, times fixed
references of its own that use no gfermat code (see ``REFERENCES``):

* an exact-arithmetic kernel.  An in-process operation's latency is its
  wall time times the kernel's nominal time over the median of the six
  kernel timings around it.  The shared host's speed drifts by up to 2x
  within a minute; that moves the kernel and the operation alike, while a
  faster or slower gfermat moves only the operation.
* for ``cli`` children also an empty ``python -c pass`` child.  On the
  shared host a process start costs either about 65 ms or about 50 ms
  more, in stretches of seconds.  A call's latency is the nominal empty
  child plus the rest of its wall time -- its wall time minus the median
  of the four empty-child timings around it -- scaled like in-process work.

On a host that runs the references in their nominal times the latencies
are wall times.  A child stopped at the deadline keeps its wall time.  The
raw wall-time figures stay in the summary line.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs pass 0
untraced and then traced (wrappers on every public layer function, see
``tracer.py``) and prints the per-layer metrics.  ``--workload all`` runs
every workload, each in a fresh process.  The last stdout line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
line before it is a summary with sample counts, the fail rate, the tail
percentile, ``reports_sha256`` and the environment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter

from fractions import Fraction

import inputs
import workloads
from tracer import LAYERS, SPAN_NAMES, TARGETS, Tracer

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

WORKLOADS = ("orbits", "varieties", "cli")
# Whole passes every run completes (mix sizes 37, 55 and 40 ops); they set
# the sample floor and the passes ``reports_sha256`` covers.  The tail is
# the highest percentile with at least ten samples beyond it at that floor.
MIN_PASSES = {"orbits": 3, "varieties": 2, "cli": 3}
TAIL_PERCENTILE = {"orbits": 90, "varieties": 90, "cli": 91}
SETUP_REPEATS = 5
IMPORT_REPEATS = 5

# Host-speed references.  ``compute``: eight determinants of a fixed 5x5
# small-fraction matrix by the benchmark's own elimination.  ``process``: an
# empty ``python -c pass`` child started like a CLI child, the interpreter
# start (``site`` included) that every CLI call pays.  The nominal times
# are what an unloaded 2.0 GHz Xeon vCPU with CPython 3.11 takes for them.
REFERENCE_MATRIX = [[Fraction((3 * i + 5 * j + 1) % 19 - 9, (i * j + 2 * i + 1) % 7 + 1)
                     for j in range(5)] for i in range(5)]
EMPTY_CHILD = [sys.executable, "-c", "pass"]
# The affinity set before the benchmark pins itself to one CPU.
NPROC = len(os.sched_getaffinity(0))

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def require_tree():
    """Import gfermat from this checkout's ``src``; exit non-zero without a
    result when the tree is not there."""
    if not os.path.isfile(os.path.join(SRC, "gfermat", "__init__.py")):
        print(f"bench: no gfermat package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import gfermat
    if not os.path.abspath(gfermat.__file__).startswith(SRC + os.sep):
        print("bench: gfermat was imported from outside the checkout", file=sys.stderr)
        sys.exit(2)


class Workload:
    """The passes of one workload: pass i draws its inputs from (seed, i)."""

    def __init__(self, name: str, seed: int, tiny: bool = False):
        self.name, self.seed, self.tiny = name, seed, tiny
        self.deadline = 0.5 if tiny else workloads.CLI_DEADLINE_S
        self.references = ("compute", "process") if name == "cli" else ("compute",)

    def ops(self, pass_index: int):
        rng = inputs.pass_rng(self.seed, pass_index, self.name)
        if self.name == "orbits":
            return workloads.orbits_pass(rng, self.tiny)
        if self.name == "varieties":
            return workloads.varieties_pass(rng, self.tiny)
        calls = workloads.cli_calls(rng, self.tiny)
        workloads.attach_references(calls, self.deadline)
        return workloads.cli_ops(ROOT, calls, self.deadline)


def pin_to_one_cpu():
    """Run this process and the children it starts on one CPU, so the
    reference timings see the CPU the measured work runs on."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def compute_reference() -> float:
    t0 = time.perf_counter()
    for _ in range(8):
        inputs.det(REFERENCE_MATRIX)
    return time.perf_counter() - t0


def process_reference() -> float:
    t0 = time.perf_counter()
    subprocess.run(EMPTY_CHILD, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                   stderr=subprocess.DEVNULL, check=True, timeout=60)
    return time.perf_counter() - t0


# name -> (timing function, nominal seconds, timings on each side of an op)
REFERENCES = {
    "compute": (compute_reference, 2.0e-3, 3),
    "process": (process_reference, 65e-3, 2),
}


def at_nominal(wall: float, timings: dict) -> float:
    """A wall time taken to the nominal host speed, given the timings of
    each reference around it: the empty-child part (if any) at its nominal
    time, the rest scaled by the kernel."""
    def nominal_and_measured(name):
        return REFERENCES[name][1], statistics.median(timings[name])

    start_nominal = start_measured = 0.0
    if "process" in timings:
        start_nominal, start_measured = nominal_and_measured("process")
    kernel_nominal, kernel_measured = nominal_and_measured("compute")
    return start_nominal + (wall - start_measured) * kernel_nominal / kernel_measured


def take_references(names, timings: dict) -> None:
    for name in names:
        timings.setdefault(name, []).append(REFERENCES[name][0]())


def nominal_call(fn, names) -> float:
    """Run ``fn`` (which returns a wall time) between reference timings,
    three on each side; returns that time at the nominal host speed."""
    timings = {}
    for _ in range(3):
        take_references(names, timings)
    wall = fn()
    for _ in range(3):
        take_references(names, timings)
    return at_nominal(wall, timings)


def warm_up(ops):
    for op in ops:
        if op.warm:
            op.call()


def run_pass(ops, tracer=None, references=("compute",)):
    """Run ops back to back with a reference timing between every two;
    returns (latency_s at the nominal host speed, result, error, wall_s)
    per op."""
    clock = time.perf_counter
    walls, timings = [], {}
    take_references(references, timings)
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.begin_op(index)
        t0 = clock()
        try:
            result, error = op.call(), None
        except Exception as exc:
            result, error = None, exc
        t1 = clock()
        if tracer is not None:
            tracer.end_op(t1)
        walls.append((t1 - t0, result, error))
        take_references(references, timings)
    out = []
    for index, (wall, result, error) in enumerate(walls):
        window = {name: values[max(0, index - REFERENCES[name][2] + 1):
                                index + REFERENCES[name][2] + 1]
                  for name, values in timings.items()}
        killed = getattr(result, "killed", False)
        latency = wall if killed else at_nominal(wall, window)
        out.append((latency, result, error, wall))
    return out


def pass_scale(outcomes) -> float:
    """Latency-weighted host factor of a pass, for times measured inside it."""
    return sum(o[0] for o in outcomes) / sum(o[3] for o in outcomes)


def check_pass(ops, outcomes):
    """Oracle verdict per op and the canonical reports."""
    results = {op.key: res for op, (_, res, err, _) in zip(ops, outcomes) if err is None}
    verdicts, reports = [], []
    for op, (_, res, err, _) in zip(ops, outcomes):
        if err is not None:
            verdicts.append(f"exception:{type(err).__name__}:{err}")
            reports.append([op.key, {"exception": type(err).__name__}])
            continue
        try:
            ok = bool(op.check(res, results))
        except Exception as exc:
            ok = False
            verdicts.append(f"oracle-error:{type(exc).__name__}:{exc}")
        else:
            verdicts.append(None if ok else "oracle-mismatch")
        reports.append([op.key, op.report(res)])
    return verdicts, reports


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str)


def percentile(values, pct):
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def peak_rss_mb(include_children: bool) -> float:
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        kb = max(kb, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def git_commit():
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def src_lines() -> int:
    total = 0
    for base, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(base, name), encoding="utf-8") as handle:
                    total += sum(1 for _ in handle)
    return total


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": NPROC,
        "commit": git_commit(),
        "seed": seed,
        "src_lines": src_lines(),
    }


def measure_setup(workload: Workload, repeats: int) -> list[float]:
    """Process start to first timed op, in fresh processes: each child sets
    up and prints the monotonic clock (system-wide on Linux) when ready.
    Each time is taken to the nominal host speed."""
    argv = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload",
            workload.name, "--seed", str(workload.seed), "--setup-only"]
    if workload.tiny:
        argv.append("--tiny")
    def once():
        t0 = time.monotonic()
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=170)
        if done.returncode != 0:
            raise RuntimeError(f"setup child failed: {done.stderr.strip()[-500:]}")
        return float(done.stdout.strip().splitlines()[-1]) - t0

    return [nominal_call(once, workload.references) for _ in range(repeats)]


def measure_import_ms(repeats: int) -> list[float]:
    """Time of ``import gfermat.cli`` in a fresh interpreter, at the
    nominal host speed."""
    code = ("import time; t = time.perf_counter(); import gfermat.cli; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=SRC)

    def once():
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=60, check=True)
        return float(done.stdout.strip())

    return [nominal_call(once, ("compute",)) * 1e3 for _ in range(repeats)]


def setup(workload: Workload):
    ops = workload.ops(0)
    warm_up(ops)
    return ops


class Tally:
    """Attempted/failed counts, failure reasons and oracle verdicts."""

    def __init__(self):
        self.attempted = self.failed = self.incorrect = 0
        self.failures = []
        self.oracles = {}

    def add(self, ops, verdicts):
        for op, verdict in zip(ops, verdicts):
            self.attempted += 1
            self.oracles.setdefault(op.kind, [0, 0])[verdict is not None] += 1
            if verdict is not None:
                self.failed += 1
                if not op.probe:
                    self.incorrect += 1
                if len(self.failures) < 20:
                    self.failures.append([op.key, verdict])


def timed_run(workload: Workload, seconds: float, min_passes: int, setup_s):
    """Whole passes until ``seconds`` have passed and ``min_passes`` are
    done; ``ops_per_s`` is ops completed over the time they took."""
    ops = setup(workload)
    mix = Counter(f"{op.kind}@{op.size}" for op in ops)
    tally = Tally()
    digest = hashlib.sha256()
    latencies, walls, kinds = [], [], {}
    end = time.monotonic() + seconds
    index = 0
    while index < min_passes or time.monotonic() < end:
        if index:
            ops = workload.ops(index)
        outcomes = run_pass(ops, references=workload.references)
        verdicts, reports = check_pass(ops, outcomes)
        tally.add(ops, verdicts)
        if index < min_passes:
            digest.update(canonical(reports).encode("utf-8"))
        for op, (lat, _, _, wall) in zip(ops, outcomes):
            latencies.append(lat)
            walls.append(wall)
            kinds.setdefault(op.kind, []).append(lat)
        del outcomes, reports
        index += 1
    samples = len(latencies)
    tail = TAIL_PERCENTILE[workload.name]
    metrics = {
        "ops_per_s": (samples / sum(latencies), samples),
        "latency_p50_ms": (statistics.median(latencies) * 1e3, samples),
        "latency_tail_ms": (percentile(latencies, tail) * 1e3, samples),
        "setup_s": (statistics.median(setup_s), len(setup_s)),
        "peak_rss_mb": (peak_rss_mb(workload.name == "cli"), 1),
    }
    extra = {
        "mix": dict(sorted(mix.items())),
        "passes": index,
        "tail_percentile": f"p{tail}",
        "reports_sha256": digest.hexdigest(),
        "wall": {"ops_per_s": samples / sum(walls),
                 "latency_p50_ms": statistics.median(walls) * 1e3,
                 "latency_tail_ms": percentile(walls, tail) * 1e3,
                 "nominal_over_wall": sum(latencies) / sum(walls)},
        "kinds": {k: {"count": len(v), "median_ms": statistics.median(v) * 1e3}
                  for k, v in sorted(kinds.items())},
    }
    return metrics, tally, extra


def traced_run(workload: Workload, seconds: float):
    """Pass 0 untraced, then traced, repeated until ``seconds`` pass.
    Counts come from the first traced pass (later ones must repeat them);
    self times are medians over the traced passes."""
    is_cli = workload.name == "cli"
    ops = sub_ops = setup(workload)
    if is_cli:
        # traced spans come from cli.main in-process on the same argv
        ops = workloads.cli_ops(ROOT, [op.meta["call"] for op in sub_ops],
                                workload.deadline, inprocess=True)
    tally = Tally()
    summaries, untraced_s, traced_s, spawn, startup = [], [], [], [], []
    first_tracer = None
    end = time.monotonic() + seconds
    while not summaries or time.monotonic() < end:
        if is_cli:
            sub = run_pass(sub_ops, references=workload.references)
            verdicts, _ = check_pass(sub_ops, sub)
            tally.add(sub_ops, verdicts)
        plain = run_pass(ops)
        verdicts, _ = check_pass(ops, plain)
        tally.add(ops, verdicts)
        with Tracer() as tracer:
            traced = run_pass(ops, tracer)
        verdicts, _ = check_pass(ops, traced)
        tally.add(ops, verdicts)
        killed = {i for i, (_, res, _, _) in enumerate(traced) if is_cli and res.killed}
        summary = tracer.summary(killed)
        scale = pass_scale(traced)
        summary["self_s"] = {k: v * scale for k, v in summary["self_s"].items()}
        summaries.append(summary)
        if first_tracer is None:
            first_tracer = tracer
        live = [i for i, (a, b) in enumerate(zip(plain, traced))
                if not (is_cli and (a[1].killed or b[1].killed))]
        untraced_s.append(sum(plain[i][0] for i in live))
        traced_s.append(sum(traced[i][0] for i in live))
        if is_cli:
            for op, (s_lat, _, _, _), (p_lat, _, _, _) in zip(ops, sub, plain):
                if not op.probe:
                    spawn.append(s_lat * 1e3)
                    startup.append((s_lat - p_lat) * 1e3)

    first = summaries[0]
    counts_repeat = all(s["calls"] == first["calls"] for s in summaries)
    metrics = {}
    for layer, name, _ in TARGETS:
        span = f"{layer}.{name}"
        metrics[f"{span}.calls"] = (first["calls"][span], "count")
        metrics[f"{span}.self_s"] = (
            statistics.median(s["self_s"][span] for s in summaries), "s")
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (statistics.median(
            sum(v for k, v in s["self_s"].items() if k.startswith(layer + "."))
            for s in summaries), "s")
    acts = first["calls"]["modaction.act"]
    gp = first["calls"]["arrangement.is_general_position"]
    metrics["modaction.distinct_per_act"] = (
        first["orbit_elements"] / acts if acts else 0.0, "ratio")
    metrics["arrangement.dets_per_gp_check"] = (
        first["dets_under_gp"] / gp if gp else 0.0, "ratio")
    metrics["fermatgroup.closure_elements"] = (first["closure_elements"], "count")
    metrics["cli.spawn_ms"] = (statistics.median(spawn) if spawn else 0.0, "ms")
    metrics["cli.import_ms"] = (statistics.median(measure_import_ms(IMPORT_REPEATS)), "ms")
    metrics["cli.startup_ms"] = (statistics.median(startup) if startup else 0.0, "ms")
    metrics["trace_overhead"] = (
        statistics.median(untraced_s) / statistics.median(traced_s), "ratio")

    os.makedirs(OUT_DIR, exist_ok=True)
    span_file = os.path.join(OUT_DIR, f"spans-{workload.name}-seed{workload.seed}.json.gz")
    first_tracer.write(span_file)
    extra = {
        "traced_passes": len(summaries),
        "counts_repeat": counts_repeat,
        "spans": len(first_tracer.end),
        "span_file": os.path.relpath(span_file, ROOT),
        "span_names": len(SPAN_NAMES),
    }
    return metrics, tally, extra


def run_all(args) -> int:
    """Every workload in a fresh process; prints each summary and result."""
    status = 0
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or len(lines) < 2:
            print(f"{name}: failed ({done.returncode}) {done.stderr.strip()[-300:]}")
            status = 1
            continue
        summary = json.loads(lines[-2])["summary"]
        print(f"== {name}  fail_rate={summary['fail_rate']:.4f} "
              f"({summary['failed']}/{summary['attempted']})  "
              f"tail={summary.get('tail_percentile')}  "
              f"reports_sha256={summary.get('reports_sha256')}")
        for metric, entry in summary["metrics"].items():
            print(f"   {metric:<44} {entry['value']:>14.6g} {entry['unit']:<6} "
                  f"n={entry['samples']}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest inputs, one pass (used by selftest.py)")
    args = parser.parse_args(argv)

    require_tree()
    pin_to_one_cpu()
    if args.workload == "all":
        return run_all(args)
    workload = Workload(args.workload, args.seed, args.tiny)
    if args.setup_only:
        setup(workload)
        print(repr(time.monotonic()))
        return 0

    if args.trace:
        raw, tally, extra = traced_run(workload, args.seconds)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in raw.items()}
        samples = {k: 1 for k in raw}
    else:
        setup_s = measure_setup(workload, 1 if args.tiny else SETUP_REPEATS)
        min_passes = 1 if args.tiny else MIN_PASSES[args.workload]
        raw, tally, extra = timed_run(workload, args.seconds, min_passes, setup_s)
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, (v, _) in raw.items()}
        samples = {k: n for k, (_, n) in raw.items()}

    summary = {
        "workload": args.workload,
        "trace": args.trace,
        "environment": environment(args.seed),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "fail_rate": tally.failed / tally.attempted,
        "metrics": {k: dict(m, samples=samples[k]) for k, m in metrics.items()},
        "failures": tally.failures,
        "oracles": tally.oracles,
        **extra,
    }
    print(json.dumps({"summary": summary}, sort_keys=True))
    print(json.dumps({
        "correct": tally.incorrect == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
