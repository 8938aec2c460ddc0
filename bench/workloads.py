"""The three workloads as passes of timed operations with their oracles.

A pass is a fixed multiset of operations (kind x size class) whose inputs
are drawn fresh from ``inputs.pass_rng(seed, pass_index, workload)``.  Each
``Op`` carries the timed call, an oracle run after the pass (outside the
timed region, so it may read the results of other ops of the same pass)
and a canonical JSON report for ``reports_sha256``.

* ``orbits``  -- S_{n+1} enumeration: act -> normalize(check=False).
* ``varieties`` -- wide minor sweeps, cyclotomic verification, subgroup
  closure, invariants and constructions; no S_{n+1} enumeration.
* ``cli``     -- ``python -m gfermat.cli`` subprocesses, one at a time,
  including the contract probes.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
import random
import signal
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable

import inputs as gen


@dataclass
class Op:
    key: str
    kind: str
    size: str
    call: Callable[[], Any]
    check: Callable[[Any, dict], bool]
    report: Callable[[Any], Any]
    probe: bool = False
    warm: bool = False
    meta: dict = field(default_factory=dict)


def _library():
    from gfermat import arrangement, constructions, exactfield, fermatgroup, invariants, modaction
    return arrangement, constructions, exactfield, fermatgroup, invariants, modaction


def _one_line(perm):
    return list(perm.one_line())


# ---------------------------------------------------------------------------
# orbits
# ---------------------------------------------------------------------------

# Act laws at every class with n+1 in {5, 6, 7}; full op groups at n+1 = 5
# (d = 1 twice, d = 2 once) and n+1 = 6 (d = 2).  The classes are chosen so
# the median falls inside the d1n4 block and the p90 inside the d2n5
# full-scan block, not on a boundary between differently priced blocks.
ORBIT_ACTLAW_CLASSES = tuple((d, n) for n in (4, 5, 6) for d in range(1, n - 1))
ORBIT_GROUP_CLASSES = ((1, 4), (1, 4), (2, 4), (2, 5))


def orbits_pass(rng: random.Random, tiny: bool = False) -> list[Op]:
    arr, _, _, fg, _, act = _library()
    SP = arr.StandardParameter
    Perm = act.Permutation
    ops: list[Op] = []
    actlaw_classes = ((1, 4), (2, 4)) if tiny else ORBIT_ACTLAW_CLASSES
    group_classes = ((1, 4),) if tiny else ORBIT_GROUP_CLASSES

    for d, n in actlaw_classes:
        rows = gen.random_table(rng, d, n)
        a = gen.random_permutation(rng, n + 1)
        b = gen.random_permutation(rng, n + 1)
        ops.append(_actlaw_op(act, SP, Perm, d, n, rows, a, b, f"actlaw@d{d}n{n}"))
    for index, (d, n) in enumerate(group_classes):
        ops.extend(_orbit_group(rng, act, fg, SP, d, n, f"{index}@d{d}n{n}"))
    _mark_warm(ops)
    return ops


def _actlaw_op(act, SP, Perm, d, n, rows, a, b, key):
    par = SP(d, n, rows)
    m = n + 1
    sigma1 = Perm.transposition(m, 0, 1)
    sigma2 = Perm.full_cycle(m)
    pa, pb = Perm(a), Perm(b)

    def call():
        return (
            act.act(sigma1, par, validate=False), act.act_sigma1(par),
            act.act(sigma2, par, validate=False), act.act_sigma2(par),
            act.act(pa * pb, par, validate=False),
            act.act(pb, act.act(pa, par, validate=False), validate=False),
        )

    own_sigma1 = gen.act_rows(sigma1.images, d, rows)
    own_ab = gen.act_rows(gen.compose(a, b), d, rows)

    def check(res, _results):
        s1, s1c, s2, s2c, ab, b_a = res
        return (s1 == s1c and s2 == s2c and ab == b_a
                and s1.rows == own_sigma1 and ab.rows == own_ab)

    return Op(key, "actlaw", f"d{d}n{n}", call, check,
              lambda res: [p.to_json() for p in res])


def _check_orbit(report, _results):
    n = report.base.n
    return (report.orbit_size * report.stabilizer_order == math.factorial(n + 1)
            and any(e.rows == report.base.rows for e in report.elements)
            and any(s.is_identity() for s in report.stabilizer))


def _orbit_report(report):
    return {"elements": [e.to_json() for e in report.elements],
            "stabilizer": sorted(_one_line(s) for s in report.stabilizer)}


def _orbit_group(rng, act, fg, SP, d, n, tag):
    """Orbit, canon of p and of act(eta, p), aut-order, a true and a false
    iso pair and the kernel, all at one parameter class."""
    size = f"d{d}n{n}"
    rows = gen.random_table(rng, d, n)
    eta = gen.random_permutation(rng, n + 1)
    moved = gen.act_rows(eta, d, rows)
    other = gen.random_table(rng, d, n)
    k = rng.randint(2, 6)
    kernel_seed = rng.randrange(2**31)
    par, par_moved, par_other = SP(d, n, rows), SP(d, n, moved), SP(d, n, other)
    orbit_key, canon_key = f"orbit{tag}", f"canon{tag}"

    def orbit_rows(results):
        return {e.rows for e in results[orbit_key].elements}

    def check_canon(res, results):
        return res == min(results[orbit_key].elements, key=lambda p: p.flatten())

    def check_canon_moved(res, results):
        return res == results[canon_key]

    def check_aut(res, results):
        stab = results[orbit_key].stabilizer_order
        return res.stabilizer_order == stab and res.order == stab * k**n

    def check_iso_true(res, _results):
        return res.equivalent and gen.act_rows(res.witness.images, d, rows) == moved

    def check_iso_false(res, results):
        if res.equivalent:
            return gen.act_rows(res.witness.images, d, rows) == other
        return other not in orbit_rows(results)

    def check_kernel(res, _results):
        return len(res) == 1 and res[0].is_identity()

    def iso_report(res):
        return {"equivalent": res.equivalent,
                "witness": _one_line(res.witness) if res.witness else None}

    return [
        Op(orbit_key, "orbit", size, lambda: act.orbit_and_stabilizer(par),
           _check_orbit, _orbit_report),
        Op(canon_key, "canon", size, lambda: act.canonical_representative(par),
           check_canon, lambda res: res.to_json()),
        Op(f"canon_moved{tag}", "canon", size,
           lambda: act.canonical_representative(par_moved),
           check_canon_moved, lambda res: res.to_json()),
        Op(f"aut{tag}", "aut_order", size, lambda: fg.automorphism_order(par, k),
           check_aut, lambda res: res.to_json()),
        Op(f"iso_true{tag}", "iso_true", size,
           lambda: act.are_isomorphic(par, par_moved), check_iso_true, iso_report),
        Op(f"iso_false{tag}", "iso_false", size,
           lambda: act.are_isomorphic(par, par_other), check_iso_false, iso_report),
        Op(f"kernel{tag}", "kernel", size,
           lambda: act.kernel_of_R(n, d, rng=random.Random(kernel_seed)),
           check_kernel, lambda res: [_one_line(p) for p in res]),
    ]


def _mark_warm(ops):
    """Warm up with the first (smallest) op of each kind."""
    seen = set()
    for op in ops:
        if op.kind not in seen:
            seen.add(op.kind)
            op.warm = True


# ---------------------------------------------------------------------------
# varieties
# ---------------------------------------------------------------------------

# (d, n) of the wide arrangements: general position scans C(n+1, d+1)
# (d+1)-minors, smoothness C(n+1, d+1) (n-d)-minors.
WIDE_CLASSES = ((1, 9), (2, 9), (2, 11), (3, 10))
# (d, p, n) with p | n+1: the sum-zero subgroup has order p^(n-1); it acts
# freely for d = 1 and not for d = 2.
FREE_CLASSES = ((1, 2, 9), (1, 2, 11))
NONFREE_CLASSES = ((2, 2, 9), (2, 3, 8))
FIXED_LOCUS_TYPES = ((2, 3, 5), (2, 4, 6), (3, 3, 7))
FIXED_LOCUS_SWEEP = 1000
# k of the verified matrices: a range, so the cyclotomic caches both hit
# and miss.
VERIFY_K = (5, 13)
VERIFY_REPEATS = 4
# (d, k range, n range) of invariant_report and of h0_twist.
INVARIANT_TYPES = ((2, (100, 140), (14, 16)), (3, (50, 80), (12, 14)))


def varieties_pass(rng: random.Random, tiny: bool = False) -> list[Op]:
    arr, con, ef, fg, inv, _ = _library()
    ops: list[Op] = []
    wide = ((1, 5),) if tiny else WIDE_CLASSES
    for index, (d, n) in enumerate(wide):
        ops.extend(_wide_ops(rng, arr, fg, d, n, mode=index))
    for d, p, n in (((1, 2, 3),) if tiny else FREE_CLASSES):
        ops.append(_subgroup_op(rng, fg, d, p, n, free=True))
    for d, p, n in (((2, 2, 5),) if tiny else NONFREE_CLASSES):
        ops.append(_subgroup_op(rng, fg, d, p, n, free=False))
    for d, k, n in (((1, 2, 3),) if tiny else FIXED_LOCUS_TYPES):
        ops.append(_fixed_locus_op(rng, fg, d, k, n, 10 if tiny else FIXED_LOCUS_SWEEP))
    ks = (3, 4) if tiny else VERIFY_K
    for rep in range(1 if tiny else VERIFY_REPEATS):
        ops.append(_verify_deck_op(rng, arr, ef, fg, rng.randint(*ks), rep))
        ops.append(_verify_perm_op(rng, arr, ef, fg, rng.randint(*ks), rep))
        ops.append(_verify_reject_op(rng, arr, ef, fg, rng.randint(*ks), rep))
    for rep in range(1 if tiny else VERIFY_REPEATS):
        ops.append(_cyclo_inverse_op(rng, ef, rng.randint(*ks), rep))
    for rep, (d, ks, ns) in enumerate(((2, (3, 6), (3, 5)),) if tiny else INVARIANT_TYPES):
        ops.extend(_invariant_ops(rng, fg, inv, d, ks, ns, rep))
    for rep in range(1 if tiny else 2):
        ops.extend(_kummer_ops(rng, con, rep))
        ops.append(_restrict_op(rng, arr, con, rep))
        ops.append(_conic_op(rng, arr, con, rep))
    _mark_warm(ops)
    return ops


def _degenerate(d, rows, mode):
    """A table whose canonical arrangement has a zero maximal minor, placed
    at a middle row so the early exit comes at a fixed point of the scan."""
    rows = [list(r) for r in rows]
    i = len(rows) // 2
    if mode % 3 == 0:
        rows[i][0] = Fraction(0)          # dependent with e_2 .. e_{d+1}
    elif mode % 3 == 1:
        rows[i][-1] = Fraction(1)         # dependent with e_1..e_{d-1}, (1..1)
    else:
        rows[i - 1] = rows[i][:]          # two equal hyperplanes
    return tuple(tuple(r) for r in rows)


def _wide_ops(rng, arr, fg, d, n, mode):
    size = f"d{d}n{n}"
    rows = gen.random_table(rng, d, n)
    bad = _degenerate(d, rows, mode)
    k = rng.randint(2, 5)
    points = gen.scramble(rng, d, gen.duals_of(d, rows))
    bad_points = gen.scramble(rng, d, gen.duals_of(d, bad))
    arrangement = arr.Arrangement(d, tuple(arr.Hyperplane(q) for q in points))
    par = arr.StandardParameter(d, n, rows)
    bad_system = fg.EquationSystem.from_table(d, n, k, bad)

    def gp_key(ok):
        return f"gp_{'true' if ok else 'false'}@{size}"

    def check_gale(expected):
        def check(res, results):
            return res is expected and results.get(gp_key(expected)) is expected
        return check

    return [
        Op(gp_key(True), "gp_true", size,
           lambda: arr.is_general_position(points, d),
           lambda res, _r: res is True, lambda res: res),
        Op(gp_key(False), "gp_false", size,
           lambda: arr.is_general_position(bad_points, d),
           lambda res, _r: res is False, lambda res: res),
        Op(f"normalize@{size}", "normalize", size,
           lambda: arr.normalize(arrangement, check=True),
           lambda res, _r: res[1].rows == rows,
           lambda res: {"T": res[0].to_json(), "parameter": res[1].to_json()}),
        Op(f"smooth_true@{size}", "smooth_true", size,
           lambda: fg.smoothness_certificate(fg.equations(par, k)),
           check_gale(True), lambda res: res),
        Op(f"smooth_false@{size}", "smooth_false", size,
           lambda: fg.smoothness_certificate(bad_system),
           check_gale(False), lambda res: res),
    ]


def _subgroup_op(rng, fg, d, p, n, free):
    """Generators of the sum-zero subgroup of the mod-p deck group, mixed
    by random units and diagonal shifts (the subgroup is unchanged)."""
    gens = []
    for i in rng.sample(range(n), n):
        unit = rng.randrange(1, p)
        shift = rng.randrange(p)
        exps = [shift] * (n + 1)
        exps[i] = (exps[i] + unit) % p
        exps[i + 1] = (exps[i + 1] - unit) % p
        gens.append(fg.GroupElement(p, tuple(exps)))
    gfm_type = fg.GfmType(d, p, n)
    order = p ** (n - 1)

    def check(res, _results):
        return res.free is free and res.subgroup_order == order

    return Op(f"{'free' if free else 'nonfree'}@d{d}p{p}n{n}",
              "subgroup_free" if free else "subgroup_nonfree", f"p{p}^{n - 1}",
              lambda: fg.subgroup_acts_freely(gens, gfm_type), check,
              lambda res: {"free": res.free, "order": res.subgroup_order,
                           "offending": res.offending.to_json() if res.offending else None})


def _fixed_locus_op(rng, fg, d, k, n, count):
    gfm_type = fg.GfmType(d, k, n)
    elements = [fg.GroupElement(k, tuple(rng.randrange(k) for _ in range(n + 1)))
                for _ in range(count)]

    def expected(element):
        levels = {}
        for j, m in enumerate(element.exponents, start=1):
            levels.setdefault(m, []).append(j)
        return [(tuple(idx), len(idx) + d - n - 1)
                for _, idx in sorted(levels.items()) if len(idx) >= n + 1 - d]

    def check(res, _results):
        return all(
            [(c.indices, c.dimension) for c in rep.components] == expected(g)
            for g, rep in zip(elements, res)
        )

    return Op(f"fixed_locus@d{d}k{k}n{n}", "fixed_locus", f"d{d}k{k}n{n}x{count}",
              lambda: [fg.fixed_locus(g, gfm_type) for g in elements], check,
              lambda res: [rep.to_json() for rep in res])


def _verify_deck_op(rng, arr, ef, fg, k, rep):
    d, n = 2, rng.choice((4, 5))
    par = arr.StandardParameter(d, n, gen.random_table(rng, d, n))
    zero = ef.CyclotomicScalar.zero(k)
    powers = [rng.randrange(k) for _ in range(n + 1)]
    rows = [[ef.CyclotomicScalar.zeta(k, powers[r]) if c == r else zero for c in range(n + 1)]
            for r in range(n + 1)]
    matrix = ef.ExactMatrix.from_rows(rows)
    return Op(f"verify_deck{rep}@k{k}", "verify_deck", f"d{d}n{n}k{k}",
              lambda: fg.is_linear_automorphism(matrix, par, k),
              lambda res, _r: res is True, lambda res: res)


def _verify_perm_op(rng, arr, ef, fg, k, rep):
    """A coordinate permutation twisted by k-th roots of unity on the
    Fermat variety (n = d+1), which every such matrix preserves."""
    d = rng.choice((2, 3))
    n = d + 1
    par = arr.StandardParameter(d, n, ())
    images = gen.random_permutation(rng, n + 1)
    zero = ef.CyclotomicScalar.zero(k)
    rows = [[ef.CyclotomicScalar.zeta(k, rng.randrange(k)) if c == images[r] else zero
             for c in range(n + 1)] for r in range(n + 1)]
    matrix = ef.ExactMatrix.from_rows(rows)
    return Op(f"verify_perm{rep}@k{k}", "verify_perm", f"d{d}n{n}k{k}",
              lambda: fg.is_linear_automorphism(matrix, par, k),
              lambda res, _r: res is True, lambda res: res)


def _verify_reject_op(rng, arr, ef, fg, k, rep):
    d, n = 2, 3
    par = arr.StandardParameter(d, n, ())
    while True:
        rows = [[gen.rand_fraction(rng, 3) for _ in range(n + 1)] for _ in range(n + 1)]
        if gen.det(rows) and any(sum(1 for x in r if x) > 1 for r in rows):
            break
    matrix = ef.ExactMatrix.from_rows(rows)
    return Op(f"verify_reject{rep}@k{k}", "verify_reject", f"d{d}n{n}k{k}",
              lambda: fg.is_linear_automorphism(matrix, par, k),
              lambda res, _r: res is False, lambda res: res)


def _cyclo_inverse_op(rng, ef, k, rep):
    """Inverse of a random nonzero element of Q(zeta_k), checked by the
    product with the element itself."""
    degree = len(ef.cyclotomic_polynomial(k)) - 1
    while True:
        x = ef.CyclotomicScalar.from_poly(k, [gen.rand_fraction(rng, 9) for _ in range(degree)])
        if x:
            break
    return Op(f"cyclo_inverse{rep}@k{k}", "cyclo_inverse", f"k{k}", x.inverse,
              lambda res, _r: x * res == ef.CyclotomicScalar.one(k),
              lambda res: res.to_json())


def _invariant_ops(rng, fg, inv, d, ks, ns, rep):
    """invariant_report on one type and h0_twist on another, so h0_twist
    does not just hit the cache the report filled."""
    report_type = fg.GfmType(d, rng.randint(*ks), rng.randint(*ns))
    twist_type = fg.GfmType(d, rng.randint(*ks), rng.randint(*ns))
    r = rng.randint(twist_type.k, 3 * twist_type.k)

    def label(t):
        return f"d{t.d}k{t.k}n{t.n}"

    def check_report(res, _results):
        r1 = res.r1
        if r1 >= 0 and res.pa_pg != inv.hilbert_series_coefficient(report_type, r1):
            return False
        return all(p == inv.hilbert_series_coefficient(report_type, m * r1)
                   for m, p in res.plurigenera.items() if m * r1 >= 0)

    return [
        Op(f"invariant_report{rep}", "invariant_report", label(report_type),
           lambda: inv.invariant_report(report_type), check_report,
           lambda res: res.to_json()),
        Op(f"h0_twist{rep}", "h0_twist", f"{label(twist_type)}r{r}",
           lambda: inv.h0_twist(twist_type, r),
           lambda res, _r: res == inv.hilbert_series_coefficient(twist_type, r),
           lambda res: res),
    ]


def _kummer_ops(rng, con, rep):
    while True:
        alphas = sorted({gen.rand_fraction(rng, 12) for _ in range(6)})
        if len(alphas) == 6:
            break
    c = gen.rand_fraction(rng, 9, nonzero=True)
    e = gen.rand_fraction(rng, 9)
    moved = [c * a + e for a in alphas]
    base_key = f"kummer{rep}"

    def valid(par):
        return gen.in_general_position(gen.duals_of(2, par.rows), 2)

    return [
        Op(base_key, "kummer", "n5", lambda: con.kummer_parameters(alphas),
           lambda res, _r: valid(res), lambda res: res.to_json()),
        Op(f"kummer_affine{rep}", "kummer", "n5", lambda: con.kummer_parameters(moved),
           lambda res, results: res == results[base_key], lambda res: res.to_json()),
    ]


def _restrict_op(rng, arr, con, rep):
    n = rng.choice((4, 5, 6))
    rows = gen.random_table(rng, 2, n)
    duals = gen.duals_of(2, rows)
    while True:
        rho = tuple(gen.rand_fraction(rng, 6) for _ in range(3))
        if rho[0] and rho[2] and gen.in_general_position(duals + [rho], 2):
            break
    par = arr.StandardParameter(2, n, rows)

    def check(res, _results):
        points = res.points
        if any(sum(a * b for a, b in zip(rho, p)) for p in points):
            return False
        if any(sum(a * b for a, b in zip(q, p)) for q, p in zip(duals, points)):
            return False
        zs = [(p[0], p[1]) for p in points]

        def bracket(p, q):
            return p[0] * q[1] - p[1] * q[0]

        def moebius(z):
            return (bracket(z, zs[1]) * bracket(zs[2], zs[0])) / (
                bracket(z, zs[0]) * bracket(zs[2], zs[1]))

        return [moebius(z) for z in zs[3:]] == [row[0] for row in res.eta.rows]

    return Op(f"restrict{rep}@n{n}", "restrict_to_line", f"d2n{n}",
              lambda: con.restrict_to_line(par, rho), check, lambda res: res.to_json())


def _conic_op(rng, arr, con, rep):
    n = rng.choice((4, 5))
    while True:
        a = gen.rand_fraction(rng, 5)
        if a in (0, 2):
            continue
        lines = []
        for _ in range(n - 3):
            u = gen.tangent_line(a, gen.rand_fraction(rng, 7, nonzero=True))
            if u is None or u[2] == 0:
                break
            lines.append((u[0] / u[2], u[1] / u[2]))
        if len(lines) == n - 3 and gen.in_general_position(gen.duals_of(2, lines), 2):
            break
    rows = tuple(lines)
    par = arr.StandardParameter(2, n, rows)
    duals = gen.duals_of(2, rows)
    q = gen.conic_matrix(a)

    def check(res, _results):
        for point, dual in zip(res.tangency_points, duals):
            on_conic = sum(point[i] * q[i][j] * point[j] for i in range(3) for j in range(3))
            if on_conic or sum(x * y for x, y in zip(point, dual)):
                return False
        return len(res.eta.rows) == n - 2

    return Op(f"conic{rep}@n{n}", "conic_curve", f"d2n{n}",
              lambda: con.conic_curve_parameters(a, par), check, lambda res: res.to_json())


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

CLI_DEADLINE_S = 2.0
CLI_VARIANTS = 2


class DeadlineExceeded(BaseException):
    """Raised from SIGALRM to stop an in-process call at its deadline."""


@dataclass
class CliOutcome:
    code: Any            # exit code, None when killed, "exception:<type>"
    stdout: str
    killed: bool


def _cli_env(root: str, extra: dict) -> dict:
    env = dict(os.environ)
    env.pop("GFERMAT_BUDGET", None)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env.update(extra)
    return env


def run_cli_subprocess(root, argv, extra_env, deadline) -> CliOutcome:
    """One ``python -m gfermat.cli`` child; on timeout it is killed and
    reaped before returning."""
    try:
        done = subprocess.run(
            [sys.executable, "-m", "gfermat.cli", *argv],
            cwd=root, env=_cli_env(root, extra_env), capture_output=True,
            text=True, timeout=deadline,
        )
    except subprocess.TimeoutExpired:
        return CliOutcome(None, "", True)
    return CliOutcome(done.returncode, done.stdout, False)


@contextlib.contextmanager
def _deadline(seconds):
    def fire(_signum, _frame):
        raise DeadlineExceeded()
    previous = signal.signal(signal.SIGALRM, fire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@contextlib.contextmanager
def _patched_env(extra):
    saved = {key: os.environ.get(key) for key in list(extra) + ["GFERMAT_BUDGET"]}
    os.environ.pop("GFERMAT_BUDGET", None)
    os.environ.update(extra)
    try:
        yield
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


def run_cli_inprocess(argv, extra_env, deadline) -> CliOutcome:
    """``gfermat.cli.main`` on the same argv, stdout captured, bounded by a
    SIGALRM deadline."""
    import gfermat.cli as cli
    out, err = io.StringIO(), io.StringIO()
    killed = False
    code: Any
    with _patched_env(extra_env), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        try:
            with _deadline(deadline):
                code = cli.main(list(argv))
        except DeadlineExceeded:
            code, killed = None, True
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # an uncaught library error is a contract breach
            code = f"exception:{type(exc).__name__}"
    return CliOutcome(code, out.getvalue(), killed)


def _one_json_object(text: str) -> bool:
    try:
        return isinstance(json.loads(text), dict)
    except ValueError:
        return False


@dataclass
class CliCall:
    key: str
    kind: str
    argv: list
    expect: tuple               # acceptable exit codes
    env: dict = field(default_factory=dict)
    probe: bool = False
    reference: CliOutcome | None = None


def cli_calls(rng: random.Random, tiny: bool = False) -> list[CliCall]:
    """Every verb with small payloads, one call per documented error exit
    and the contract probes, with the exit codes they should give."""
    variants = 1 if tiny else CLI_VARIANTS
    calls: list[CliCall] = []
    for rep in range(variants):
        for verb, argv in _verb_argvs(rng, rep):
            calls.append(CliCall(f"{verb}{rep}", verb, [verb, *argv], (0,)))
    p13 = json.dumps(gen.table_json(1, 3, gen.random_table(rng, 1, 3)))
    calls += [
        CliCall("err_validation", "error_2", ["orbit", "{not json"], (2,)),
        CliCall("err_precondition", "error_3",
                ["canon", '{"d":1,"n":3,"lambda":[["1"]]}'], (3,)),
        CliCall("err_budget", "error_4", ["orbit", p13, "--budget", "5"], (4,)),
    ]
    # Contract probes from the ROADMAP baseline, scored against the exit
    # codes the contract asks for.
    bad_shape = json.dumps({"entries": [[{"k": 100000, "coeffs": ["1"]}]]})
    calls += [
        CliCall("probe_invariants_unbounded", "probe_unbounded",
                ["invariants", "2", "2000", "40"], (0, 4), probe=True),
        CliCall("probe_verify_k100000", "probe_unbounded",
                ["verify-matrix", '{"d":2,"n":3,"lambda":[]}', "2", bad_shape],
                (2, 3), probe=True),
        CliCall("probe_type_argument", "probe_usage",
                ["fixed-locus", "x", "3", "3", "[1,1,2,0]"], (2,), probe=True),
        CliCall("probe_budget_env", "probe_usage", ["invariants", "2", "4", "3"], (2,),
                env={"GFERMAT_BUDGET": "abc"}, probe=True),
        CliCall("probe_budget_negative", "probe_usage",
                ["invariants", "2", "4", "3", "--budget", "-5"], (2,), probe=True),
    ]
    if tiny:
        calls = [c for c in calls if c.kind != "probe_unbounded"] + [
            c for c in calls if c.kind == "probe_unbounded"][:1]
    return calls


def _verb_argvs(rng, rep):
    """Argv per verb; variant ``rep`` fixes the size classes (the smaller
    one on even variants), so every pass has the same mix of sizes."""
    def par(d, n):
        return json.dumps(gen.table_json(d, n, gen.random_table(rng, d, n)))

    def size(*classes):
        return classes[rep % len(classes)]

    d, n = size((1, 4), (2, 4))
    rows = gen.random_table(rng, d, n)
    eta = gen.random_permutation(rng, n + 1)
    p, p_moved = gen.table_json(d, n, rows), gen.table_json(d, n, gen.act_rows(eta, d, rows))
    points = gen.scramble(rng, 2, gen.duals_of(2, gen.random_table(rng, 2, 4)))
    arrangement = {"d": 2, "points": [[gen.fraction_text(c) for c in q] for q in points]}
    k = rng.randint(2, 5)
    exps = [rng.randrange(3) for _ in range(5)]
    even = [list(e) + [0] for e in itertools.product((0, 1), repeat=5) if sum(e) % 2 == 0]
    gens_free = rng.sample(even, 6)
    kd = rng.randint(3, 6)
    deck = {"entries": [[{"k": kd, "coeffs": ["0"] * rng.randrange(kd) + ["1"]}
                         if c == r else "0" for c in range(5)] for r in range(5)]}
    rows24 = gen.random_table(rng, 2, 4)
    duals = gen.duals_of(2, rows24)
    while True:
        rho = tuple(gen.rand_fraction(rng, 6) for _ in range(3))
        if rho[0] and rho[2] and gen.in_general_position(duals + [rho], 2):
            break
    # Scalar arguments stay positive: argparse reads "-3/2" as an option.
    while True:
        a = Fraction(rng.randint(1, 9), rng.randint(1, 4))
        u = gen.tangent_line(a, gen.rand_fraction(rng, 7, nonzero=True)) if a != 2 else None
        if u is not None and u[2] and gen.in_general_position(
                gen.duals_of(2, [(u[0] / u[2], u[1] / u[2])]), 2):
            break
    tangent = gen.table_json(2, 4, [(u[0] / u[2], u[1] / u[2])])
    alphas = set()
    while len(alphas) < 6:
        alphas.add(Fraction(rng.randint(1, 40), rng.randint(1, 12)))
    alphas = sorted(alphas)
    low_d = rng.randint(2, 5)
    return [
        ("normalize", [json.dumps(arrangement)]),
        ("orbit", [par(1, size(3, 4))]),
        ("stabilizer", [par(*size((1, 4), (2, 4)))]),
        ("iso", [json.dumps(p), json.dumps(p_moved), "--degree", str(k)]),
        ("canon", [par(1, 4)]),
        ("equations", [par(2, size(4, 5)), str(k)]),
        ("fixed-locus", ["2", "3", "4", json.dumps(exps)]),
        ("free", ["1", "2", "5", json.dumps(gens_free)]),
        ("aut-order", [par(1, 4), str(k)]),
        ("verify-matrix", [par(2, 4), str(kd), json.dumps(deck)]),
        ("invariants", [str(rng.randint(1, 3)), str(rng.randint(2, 6)), str(rng.randint(4, 8))]),
        ("kummer", [gen.fraction_text(x) for x in alphas]),
        ("restrict-line", [json.dumps(gen.table_json(2, 4, rows24)),
                           json.dumps([gen.fraction_text(c) for c in rho])]),
        ("conic", [gen.fraction_text(Fraction(rng.choice((1, 3, 5, 7, 9)), rng.choice((1, 2, 4))))]),
        ("conic-eta", [gen.fraction_text(a), json.dumps(tangent)]),
        ("classify-low-n", [str(low_d), str(rng.randint(2, low_d))]),
    ]


def check_cli(call: CliCall, outcome: CliOutcome, reference: CliOutcome | None) -> bool:
    """Exactly one JSON object on stdout, an expected exit code, and for
    exit 0 stdout byte-equal to the in-process ``cli.main`` output."""
    if outcome.killed or outcome.code not in call.expect:
        return False
    if not _one_json_object(outcome.stdout):
        return False
    if outcome.code == 0:
        return reference is not None and reference.code == 0 and \
            reference.stdout == outcome.stdout
    return True


def cli_ops(root: str, calls: list[CliCall], deadline: float,
            inprocess: bool = False) -> list[Op]:
    """One op per call: a child process, or ``cli.main`` in-process for the
    traced run."""
    ops = []
    for call in calls:
        def run(call=call):
            if inprocess:
                return run_cli_inprocess(call.argv, call.env, deadline)
            return run_cli_subprocess(root, call.argv, call.env, deadline)

        def check(outcome, _results, call=call):
            reference = call.reference
            if outcome.code == 0 and reference is None:
                # probes get their reference only once they pass
                reference = call.reference = run_cli_inprocess(call.argv, call.env, deadline)
            return check_cli(call, outcome, reference)

        ops.append(Op(call.key, call.kind, "small", run, check,
                      lambda o: {"code": o.code, "stdout": o.stdout, "killed": o.killed},
                      probe=call.probe, meta={"call": call}))
    ops[0].warm = True
    return ops


def attach_references(calls: list[CliCall], deadline: float) -> None:
    """In-process reference output for every call but the probes (a probe
    gets one only once it exits 0)."""
    for call in calls:
        if not call.probe:
            call.reference = run_cli_inprocess(call.argv, call.env, deadline)
