"""Span tracing of gfermat's public functions, installed from outside.

Each wrapped function is replaced at every binding that names it: module
globals (including names re-imported with ``from .x import y`` and the
package namespace) and class attributes (``__rmul__`` aliases ``__mul__``).
A span is (function, start, end, parent span, op id); spans stay in memory
and a function's self time is its span duration minus the time its direct
child spans cover.  Functions missing from the tree are skipped and report
zero calls.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from array import array

# (layer, metric name, attribute path inside gfermat.<layer>)
TARGETS = (
    ("exactfield", "det", "ExactMatrix.det"),
    ("exactfield", "inverse", "ExactMatrix.inverse"),
    ("exactfield", "matvec", "ExactMatrix.matvec"),
    ("exactfield", "rank", "ExactMatrix.rank"),
    ("exactfield", "solve_linear", "solve_linear"),
    ("exactfield", "all_maximal_minors_nonzero", "all_maximal_minors_nonzero"),
    ("exactfield", "projective_normalize", "projective_normalize"),
    ("exactfield", "cyclotomic_polynomial", "cyclotomic_polynomial"),
    ("exactfield", "cyclo_mul", "CyclotomicScalar.__mul__"),
    ("exactfield", "cyclo_inverse", "CyclotomicScalar.inverse"),
    ("arrangement", "is_general_position", "is_general_position"),
    ("arrangement", "normalize", "normalize"),
    ("arrangement", "arrangement_of", "arrangement_of"),
    ("arrangement", "random_parameter", "random_parameter"),
    ("modaction", "act", "act"),
    ("modaction", "orbit_and_stabilizer", "orbit_and_stabilizer"),
    ("modaction", "are_isomorphic", "are_isomorphic"),
    ("modaction", "canonical_representative", "canonical_representative"),
    ("modaction", "kernel_of_R", "kernel_of_R"),
    ("fermatgroup", "equations", "equations"),
    ("fermatgroup", "smoothness_certificate", "smoothness_certificate"),
    ("fermatgroup", "fixed_locus", "fixed_locus"),
    ("fermatgroup", "subgroup_acts_freely", "subgroup_acts_freely"),
    ("fermatgroup", "is_linear_automorphism", "is_linear_automorphism"),
    ("fermatgroup", "automorphism_order", "automorphism_order"),
    ("invariants", "h0_twist", "h0_twist"),
    ("invariants", "hilbert_series_coefficient", "hilbert_series_coefficient"),
    ("invariants", "invariant_report", "invariant_report"),
    ("constructions", "kummer_parameters", "kummer_parameters"),
    ("constructions", "restrict_to_line", "restrict_to_line"),
    ("constructions", "conic_curve_parameters", "conic_curve_parameters"),
    ("cli", "main", "main"),
)

LAYERS = ("exactfield", "arrangement", "modaction", "fermatgroup",
          "invariants", "constructions", "cli")

SPAN_NAMES = tuple(f"{layer}.{name}" for layer, name, _ in TARGETS)


def _gfermat_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "gfermat" or name.startswith("gfermat."))]


def _count_orbit_elements(tracer, report):
    tracer.orbit_elements += len(report.elements)


def _count_closure_elements(tracer, result):
    tracer.closure_elements += result.subgroup_order


class Tracer:
    """Installs span-recording wrappers; ``with Tracer() as t`` restores
    the original bindings on exit."""

    def __init__(self):
        self.fid = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.current_op = -1
        self.orbit_elements = 0
        self.closure_elements = 0
        self._op_first = 0
        self._restore = []
        self._hooks = {
            "modaction.orbit_and_stabilizer": _count_orbit_elements,
            "fermatgroup.subgroup_acts_freely": _count_closure_elements,
        }

    # -- installation --------------------------------------------------
    def __enter__(self):
        modules = _gfermat_modules()
        for fid, (layer, _, path) in enumerate(TARGETS):
            module = sys.modules.get(f"gfermat.{layer}")
            if module is None:
                continue
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                original = owner.__dict__.get(attr) if owner is not None else None
                if original is None:
                    continue
                wrapper = self._wrap(fid, original)
                for name, value in list(vars(owner).items()):
                    if value is original:
                        self._rebind(owner, name, value, wrapper)
            else:
                original = getattr(module, attr, None)
                if original is None:
                    continue
                wrapper = self._wrap(fid, original)
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            self._rebind(mod, name, value, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, name, value in reversed(self._restore):
            setattr(owner, name, value)
        self._restore.clear()
        return False

    def _rebind(self, owner, name, original, wrapper):
        self._restore.append((owner, name, original))
        setattr(owner, name, wrapper)

    def _wrap(self, fid, fn):
        stack = self._stack
        clock = time.perf_counter
        fids, parents, ops, starts, ends = (
            self.fid, self.parent, self.op, self.start, self.end)
        tracer = self
        hook = self._hooks.get(SPAN_NAMES[fid])

        def wrapper(*args, **kwargs):
            idx = len(fids)
            fids.append(fid)
            parents.append(stack[-1])
            ops.append(tracer.current_op)
            ends.append(0.0)
            starts.append(clock())
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(tracer, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", SPAN_NAMES[fid])
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def begin_op(self, op_id: int) -> None:
        self.current_op = op_id
        self._op_first = len(self.end)

    def end_op(self, when: float) -> None:
        """Close the spans an interrupt (a deadline) left open and trim a
        span it cut short mid-record, so the columns stay aligned."""
        columns = (self.fid, self.parent, self.op, self.start, self.end)
        n = min(len(c) for c in columns)
        for column in columns:
            del column[n:]
        for i in range(self._op_first, n):
            if self.end[i] == 0.0:
                self.end[i] = when
        del self._stack[1:]
        self.current_op = -1

    # -- aggregation ---------------------------------------------------
    def summary(self, uncounted_ops=frozenset()) -> dict:
        """Per-function calls and self time, plus the counts ratios use.
        Spans of ``uncounted_ops`` (ops a deadline stopped, whose partial
        counts depend on timing) add self time but no calls."""
        n = len(self.end)
        child = [0.0] * n
        under_gp = bytearray(n)
        gp_fid = SPAN_NAMES.index("arrangement.is_general_position")
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
                if under_gp[p] or self.fid[p] == gp_fid:
                    under_gp[i] = 1
        calls = [0] * len(TARGETS)
        self_s = [0.0] * len(TARGETS)
        dets_under_gp = 0
        det_fid = SPAN_NAMES.index("exactfield.det")
        for i in range(n):
            f = self.fid[i]
            self_s[f] += (self.end[i] - self.start[i]) - child[i]
            if self.op[i] in uncounted_ops:
                continue
            calls[f] += 1
            if f == det_fid and under_gp[i]:
                dets_under_gp += 1
        return {
            "calls": dict(zip(SPAN_NAMES, calls)),
            "self_s": dict(zip(SPAN_NAMES, self_s)),
            "dets_under_gp": dets_under_gp,
            "orbit_elements": self.orbit_elements,
            "closure_elements": self.closure_elements,
        }

    def write(self, path: str) -> None:
        """Write every span once, as gzipped column-oriented JSON."""
        data = {
            "names": list(SPAN_NAMES),
            "columns": ["name", "start", "end", "parent", "op"],
            "name": list(self.fid),
            "start": list(self.start),
            "end": list(self.end),
            "parent": list(self.parent),
            "op": list(self.op),
        }
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump(data, handle, separators=(",", ":"))
