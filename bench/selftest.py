#!/usr/bin/env python3
"""Self-test of the benchmark at a tiny size.

    python3 bench/selftest.py

Runs every workload with ``--tiny`` (smallest inputs, one pass), traced and
untraced, and checks that

* the metrics printed are exactly the ones ``BENCHMARK.json`` names, with
  the same units, and the result line has the contract's keys;
* every oracle ran: each op kind of each workload was checked, and only
  the CLI contract probes may fail;
* ``reports_sha256`` repeats for the same seed;
* in a directory holding only ``BENCHMARK.json`` and the benchmark, the
  run exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

ORACLE_KINDS = {
    "orbits": {"actlaw", "orbit", "canon", "aut_order", "iso_true", "iso_false", "kernel"},
    "varieties": {"gp_true", "gp_false", "normalize", "smooth_true", "smooth_false",
                  "subgroup_free", "subgroup_nonfree", "fixed_locus", "verify_deck",
                  "verify_perm", "verify_reject", "cyclo_inverse", "invariant_report",
                  "h0_twist",
                  "kummer", "restrict_to_line", "conic_curve"},
    "cli": {"normalize", "orbit", "stabilizer", "iso", "canon", "equations",
            "fixed-locus", "free", "aut-order", "verify-matrix", "invariants",
            "kummer", "restrict-line", "conic", "conic-eta", "classify-low-n",
            "error_2", "error_3", "error_4", "probe_unbounded", "probe_usage"},
}
PROBE_KINDS = {"probe_unbounded", "probe_usage"}


def run(workload, trace, cwd=ROOT, seed=7):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def parse(done):
    if done.returncode != 0:
        raise AssertionError(f"exit {done.returncode}: {done.stderr.strip()[-800:]}")
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2])["summary"], json.loads(lines[-1])


def check_result(spec, workload, trace, summary, result):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == expected, (
        f"{workload} trace={trace}: missing {sorted(set(expected) - set(printed))}, "
        f"unnamed {sorted(set(printed) - set(expected))}, "
        f"units {[(k, printed[k], expected[k]) for k in printed if k in expected and printed[k] != expected[k]]}")
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), (name, m)
        if not trace:
            assert m["value"] > 0, (name, m)
    oracles = summary["oracles"]
    missing = ORACLE_KINDS[workload] - set(oracles)
    assert not missing, f"{workload}: oracles never ran for {sorted(missing)}"
    failing = {k for k, (_, bad) in oracles.items() if bad and k not in PROBE_KINDS}
    assert not failing, f"{workload}: oracles failed for {sorted(failing)}: {summary['failures']}"
    assert result["correct"] is True


def check_bare_directory():
    """A copy holding only BENCHMARK.json and bench/ has no program to run."""
    bare = os.path.join(ROOT, ".bench_out", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(BENCH_DIR, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = run("orbits", 0, cwd=bare)
        assert done.returncode != 0, "bare directory run exited 0"
        assert "correct" not in done.stdout, "bare directory run printed a result"
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(ORACLE_KINDS)
    for workload in ORACLE_KINDS:
        hashes = []
        for trace in (0, 1):
            summary, result = parse(run(workload, trace))
            check_result(spec, workload, trace, summary, result)
            if not trace:
                hashes.append(summary["reports_sha256"])
        summary, _ = parse(run(workload, 0))
        hashes.append(summary["reports_sha256"])
        assert hashes[0] == hashes[1], f"{workload}: reports_sha256 differs between runs"
        print(f"selftest {workload}: ok ({len(summary['oracles'])} oracle kinds, "
              f"reports_sha256 {hashes[0][:16]})")
    check_bare_directory()
    print("selftest bare directory: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
