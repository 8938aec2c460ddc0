"""Acceptance suite: one test per criterion, exact equality throughout.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion (timings included where a runtime expectation is stated).
"""

import itertools
import math
import random
import time
from fractions import Fraction

from gfermat.arrangement import StandardParameter, is_standard_parameter
from gfermat.constructions import kummer_parameters
from gfermat.exactfield import CyclotomicScalar, ExactMatrix
from gfermat.fermatgroup import (
    EquationSystem,
    GroupElement,
    automorphism_order,
    equations,
    fixed_locus,
    is_linear_automorphism,
    smoothness_certificate,
    subgroup_acts_freely,
)
from gfermat.invariants import (
    GfmType,
    canonical_degree,
    classify,
    h0_twist,
    hilbert_series_coefficient,
    plurigenus,
)
from gfermat.modaction import (
    Permutation,
    act,
    act_sigma1,
    act_sigma2,
    kernel_of_R,
    orbit_and_stabilizer,
)
from tests import oracles
from tests.conftest import rand_fraction
from tests.oracles import random_parameter


def par1(*values):
    return StandardParameter(1, len(values) + 2, tuple((Fraction(v),) for v in values))


def report(number, name, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {number:2d} {name}: PASS{suffix}")


def test_criterion_01_cohomology_oracle_equivalence():
    """h0 equals the lattice-box oracle and the Hilbert-series coefficient
    on the full sweep grid."""
    start = time.time()
    checks = 0
    for d in (1, 2, 3):
        for k in range(2, 6):
            for n in range(d + 1, 9):
                t = GfmType(d, k, n)
                for r in range(0, 3 * k + 1):
                    h0 = h0_twist(t, r)
                    assert h0 == oracles.h0_box_sum(t, r), (d, k, n, r)
                    assert h0 == hilbert_series_coefficient(t, r), (d, k, n, r)
                    checks += 1
    elapsed = time.time() - start
    assert elapsed < 10
    report(1, "cohomology oracle equivalence", f"{checks} exact checks, {elapsed:.2f}s")


def test_criterion_02_surface_classification_table():
    """d = 2 classification for k <= 6, n <= 9 matches the named lists."""
    rational = {(2, 3), (3, 3), (2, 4)}
    k3 = {(4, 3), (2, 5)}
    cells = 0
    for k in range(2, 7):
        for n in range(3, 10):
            t = GfmType(2, k, n)
            label = classify(t)
            r1 = canonical_degree(t)
            if (k, n) in rational:
                assert label == "rational" and r1 < 0
            elif (k, n) in k3:
                assert label == "K3" and r1 == 0
            elif r1 > 0:
                assert label == "general-type"
            else:
                assert r1 == 0 and label == "Calabi-Yau"
            cells += 1
    report(2, "surface classification table", f"{cells} (k, n) cells")


def test_criterion_03_plurigenus_leading_coefficient():
    """Exact degree-d interpolation of m -> P_m at large m."""
    tuples = [
        (2, 3, 4), (1, 3, 3), (2, 2, 6), (1, 2, 6), (2, 3, 5),
        (3, 2, 9), (1, 4, 4), (3, 3, 6), (2, 5, 4), (1, 5, 3),
    ]
    for d, k, n in tuples:
        t = GfmType(d, k, n)
        r1 = canonical_degree(t)
        assert r1 > 0
        threshold = max(k, (n - d) * (k - 1))
        m0 = -(-threshold // r1)  # ceil
        values = [Fraction(plurigenus(t, m)) for m in range(m0, m0 + d + 1)]
        for _ in range(d):
            values = [b - a for a, b in zip(values, values[1:])]
        interpolated = values[0] / math.factorial(d)
        expected = Fraction(k ** (n - d) * r1**d, math.factorial(d))
        assert interpolated == expected == oracles.leading_coefficient(t)
    report(3, "plurigenus leading coefficient", f"{len(tuples)} tuples, exact rational equality")


def test_criterion_04_group_action_laws():
    """Generator consistency and the composition law on random parameters."""
    start = time.time()
    rng = random.Random(20240810)
    pairs = [(d, n) for d in range(1, 7) for n in range(d + 1, 8)]
    for d, n in pairs:
        for _ in range(100):
            par = random_parameter(d, n, rng)
            assert act(Permutation.transposition(n + 1, 0, 1), par, validate=False) == act_sigma1(par)
            assert act(Permutation.full_cycle(n + 1), par, validate=False) == act_sigma2(par)
            a = Permutation(tuple(rng.sample(range(n + 1), n + 1)))
            b = Permutation(tuple(rng.sample(range(n + 1), n + 1)))
            assert act(a * b, par, validate=False) == \
                act(b, act(a, par, validate=False), validate=False)
    elapsed = time.time() - start
    assert elapsed < 60
    report(4, "group action laws", f"{len(pairs)} (n, d) pairs x 100 parameters, {elapsed:.2f}s")


def test_criterion_05_kernel_of_the_action():
    """Klein four-group for (3, 1); trivial kernels elsewhere, each proved by
    one parameter that the 3-cycle (1 2 3) moves."""
    klein = {(1, 2, 3, 4), (2, 1, 4, 3), (3, 4, 1, 2), (4, 3, 2, 1)}
    assert {p.one_line() for p in kernel_of_R(3, 1)} == klein
    # independent confirmation by stabilizer intersection
    rng = random.Random(2024)
    common = None
    for _ in range(6):
        stab = {
            eta.one_line()
            for eta in orbit_and_stabilizer(random_parameter(1, 3, rng)).stabilizer
        }
        common = stab if common is None else common & stab
    assert common == klein
    for n, d in [(4, 1), (5, 2), (4, 2)]:
        kernel = kernel_of_R(n, d, rng=random.Random(n * 10 + d))
        assert len(kernel) == 1 and kernel[0].is_identity(), (n, d)
    report(5, "kernel of the action", "(3,1) Klein exact; (4,1), (5,2), (4,2) trivial")


def test_criterion_06_orbit_stabilizer():
    """|orbit| * |stabilizer| = (n+1)! and the harmonic orbit values."""
    harmonic = orbit_and_stabilizer(par1(2))
    values = {p.rows[0][0] for p in harmonic.elements}
    assert values == {Fraction(2), Fraction(1, 2), Fraction(-1)}
    rng = random.Random(66)
    reports = [harmonic]
    for d, n in [(1, 4), (2, 4), (2, 5), (3, 5), (1, 5)]:
        reports.append(orbit_and_stabilizer(random_parameter(d, n, rng)))
    for rep in reports:
        n = rep.base.n
        assert rep.orbit_size * rep.stabilizer_order == math.factorial(n + 1)
    report(6, "orbit-stabilizer identity", f"{len(reports)} reports, incl. harmonic orbit {{2, 1/2, -1}}")


def test_criterion_07_automorphism_order():
    """(d+2)! k^{d+1} on the single-point space; k^n for a generic surface."""
    for d in (1, 2, 3):
        for k in (2, 3, 4):
            par = StandardParameter(d, d + 1, ())
            result = automorphism_order(par, k)
            assert result.order == math.factorial(d + 2) * k ** (d + 1), (d, k)
    rng = random.Random(17)
    generic = automorphism_order(random_parameter(2, 5, rng), 3)
    assert generic.stabilizer_order == 1
    assert generic.order == 3**5 == 243
    report(7, "automorphism order", "hypersurface grid d<=3, k<=4; generic (2;3,5) order 243")


def test_criterion_08_fixed_loci():
    """The cubic-surface example, generator loci, and both invariances."""
    cubic = fixed_locus(GroupElement(3, (1, 1, 2, 0)), GfmType(2, 3, 3))
    assert len(cubic.components) == 1
    assert cubic.components[0].dimension == 0
    assert cubic.components[0].point_count == 3

    for d, k, n in [(1, 2, 3), (2, 3, 4), (3, 2, 5), (2, 2, 5), (2, 4, 6)]:
        t = GfmType(d, k, n)
        for g in oracles.canonical_generators(k, n):
            rep = fixed_locus(g, t)
            assert len(rep.components) == 1
            comp = rep.components[0]
            assert (comp.subtype_d, comp.subtype_n) == (d - 1, n - 1)

    rng = random.Random(88)
    t = GfmType(2, 4, 6)
    for _ in range(1000):
        exps = tuple(rng.randrange(4) for _ in range(7))
        shift = rng.randrange(4)
        g = GroupElement(4, exps)
        shifted = GroupElement(4, tuple((m + shift) % 4 for m in exps))
        assert fixed_locus(g, t) == fixed_locus(shifted, t)
        direct = {(c.indices, c.dimension) for c in fixed_locus(g, t).components}
        inverse = fixed_locus(oracles.deck_power(g, -1), t)
        assert direct == {(c.indices, c.dimension) for c in inverse.components}
    report(8, "fixed loci", "cubic-surface 3 points; generator loci; 1000 invariance checks")


def test_criterion_09_free_actions():
    """No index-p subgroup acts freely for (2,2,5) and (2,3,4); the
    even-weight corank-1 subgroup of (1,2,5) does."""
    start = time.time()

    t225 = GfmType(2, 2, 5)
    count = 0
    for c in itertools.product((0, 1), repeat=5):
        if not any(c):
            continue
        members = [
            GroupElement(2, exps + (0,))
            for exps in itertools.product((0, 1), repeat=5)
            if sum(a * b for a, b in zip(c, exps)) % 2 == 0
        ]
        result = subgroup_acts_freely(members, t225)
        assert result.subgroup_order == 16
        assert not result.free
        count += 1
    assert count == 31

    t234 = GfmType(2, 3, 4)
    count = 0
    for c in itertools.product(range(3), repeat=4):
        if not any(c) or c[next(i for i, x in enumerate(c) if x)] != 1:
            continue  # one functional per scalar class
        members = [
            GroupElement(3, exps + (0,))
            for exps in itertools.product(range(3), repeat=4)
            if sum(a * b for a, b in zip(c, exps)) % 3 == 0
        ]
        result = subgroup_acts_freely(members, t234)
        assert result.subgroup_order == 27
        assert not result.free
        count += 1
    assert count == 40

    t125 = GfmType(1, 2, 5)
    even = [
        GroupElement(2, exps + (0,))
        for exps in itertools.product((0, 1), repeat=5)
        if sum(exps) % 2 == 0
    ]
    result = subgroup_acts_freely(even, t125)
    assert result.free and result.subgroup_order == 16
    elapsed = time.time() - start
    assert elapsed < 30
    report(9, "free actions", f"31 + 40 subgroups non-free, even-weight free, {elapsed:.2f}s")


def test_criterion_10_kummer_parameters():
    """Frozen hand-computed table and affine cross-ratio invariance."""
    par = kummer_parameters([0, 1, 2, 3, 4, 5])
    assert par.columns == (
        (Fraction(3, 2), Fraction(9, 5)),
        (Fraction(4, 3), Fraction(3, 2)),
    )
    assert is_standard_parameter(par)
    rng = random.Random(10)
    done = 0
    while done < 100:
        alphas = {rand_fraction(rng, 12) for _ in range(6)}
        if len(alphas) != 6:
            continue
        alphas = sorted(alphas)
        c = rand_fraction(rng, nonzero=True)
        e = rand_fraction(rng)
        assert kummer_parameters([c * a + e for a in alphas]) == kummer_parameters(alphas)
        done += 1
    report(10, "Kummer parameters", "frozen table ((3/2,9/5),(4/3,3/2)); 100 affine-invariance checks")


def test_criterion_11_smoothness_certificate():
    """100 random parameters pass; 20 constructed degenerate tables fail."""
    rng = random.Random(11)
    for _ in range(100):
        d, n = rng.choice([(1, 4), (1, 5), (2, 4), (2, 5), (3, 5)])
        par = random_parameter(d, n, rng)
        assert smoothness_certificate(equations(par, rng.choice([2, 3, 4])))

    degenerate = 0
    while degenerate < 20:
        d, n = rng.choice([(1, 4), (2, 5), (2, 6)])
        par = random_parameter(d, n, rng)
        rows = [list(row) for row in par.rows]
        mode = degenerate % 3
        if mode == 0:
            rows[0][0] = Fraction(0)
        elif mode == 1:
            rows[0][-1] = Fraction(1)
        else:
            if len(rows) < 2:
                continue
            rows[1] = rows[0][:]
        system = EquationSystem.from_table(d, n, 2, tuple(tuple(r) for r in rows))
        assert not smoothness_certificate(system)
        degenerate += 1
    report(11, "smoothness certificate", "100 smooth, 20 degenerate rejected")


def test_criterion_12_monomial_verifier():
    """Deck-group diagonals and Fermat coordinate permutations accepted;
    random non-monomial invertible matrices rejected."""
    par = StandardParameter(2, 4, ((Fraction(2), Fraction(3)),))
    k = 3
    accepted = 0
    for j in range(5):
        for power in range(k):
            rows = []
            for r in range(5):
                row = [CyclotomicScalar.zero(k)] * 5
                row[r] = CyclotomicScalar.zeta(k, power) if r == j else CyclotomicScalar.one(k)
                rows.append(row)
            assert is_linear_automorphism(ExactMatrix.from_rows(rows), par, k)
            accepted += 1
    assert accepted == k * 5

    fermat = StandardParameter(2, 3, ())
    for images in itertools.permutations(range(4)):
        rows = []
        for r in range(4):
            row = [Fraction(0)] * 4
            row[images[r]] = Fraction(1)
            rows.append(row)
        assert is_linear_automorphism(ExactMatrix.from_rows(rows), fermat, 3)

    rng = random.Random(12)
    rejected = 0
    while rejected < 100:
        rows = [[rand_fraction(rng, 3) for _ in range(4)] for _ in range(4)]
        matrix = ExactMatrix.from_rows(rows)
        if oracles.det(matrix) == 0:
            continue
        if all(sum(1 for x in matrix.row(i) if x != 0) == 1 for i in range(4)):
            continue
        assert not is_linear_automorphism(matrix, fermat, 2)
        rejected += 1
    report(12, "monomial verifier", "15 diagonals + 24 permutations accepted, 100 rejected")
