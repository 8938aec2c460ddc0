"""Tests for equations, the deck group, fixed loci and the verifier."""

import itertools
import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gfermat import modp
from gfermat.arrangement import StandardParameter, _integer_duals, is_standard_parameter
from gfermat.errors import BudgetExceeded
from gfermat.exactfield import CyclotomicScalar, ExactMatrix
from gfermat.fermatgroup import (
    EquationSystem,
    FreeActionResult,
    GfmType,
    GroupElement,
    automorphism_order,
    bound_feasible,
    classify_low_n,
    equations,
    fixed_locus,
    is_linear_automorphism,
    smoothness_certificate,
    _candidate_count,
    _monomial_support,
    _offender_by_candidates,
    _offender_by_enumeration,
    _span_matrix,
    _subgroup_closure,
    _triangular_basis,
    subgroup_acts_freely,
)
from gfermat.modaction import act, orbit_and_stabilizer
from gfermat.modp import split_primes
from tests import oracles
from tests.conftest import nonzero_rationals, rand_fraction, tables
from tests.oracles import arrangement_of, random_parameter


def par1(*values):
    return StandardParameter(1, len(values) + 2, tuple((Fraction(v),) for v in values))


class TestGroupElement:
    def test_canonical_form_has_last_exponent_zero(self):
        g = GroupElement(3, (1, 2, 0, 2))
        assert g.exponents[-1] == 0
        assert g == GroupElement(3, (2, 0, 1, 0))  # diagonal shift by 1

    def test_generators_product_is_identity(self):
        for k, n in [(2, 3), (3, 4), (5, 2)]:
            gens = oracles.canonical_generators(k, n)
            identity = oracles.deck_identity(k, n)
            product = identity
            for g in gens:
                product = oracles.deck_product(product, g)
            assert product == identity

    def test_generator_order(self):
        for k, n in [(2, 3), (3, 4), (4, 2)]:
            for g in oracles.canonical_generators(k, n):
                assert not any(oracles.deck_power(g, k).exponents)
                assert all(any(oracles.deck_power(g, m).exponents) for m in range(1, k))

    def test_first_n_generators_generate_k_to_n(self):
        for k, n in [(2, 3), (2, 5), (3, 3), (5, 2), (4, 3), (2, 10), (3, 6)]:
            gens = oracles.canonical_generators(k, n)[:n]
            seen = {oracles.deck_identity(k, n)}
            frontier = list(seen)
            while frontier:
                fresh = []
                for g in gens:
                    for h in frontier:
                        p = oracles.deck_product(g, h)
                        if p not in seen:
                            seen.add(p)
                            fresh.append(p)
                frontier = fresh
            assert len(seen) == k**n


class TestEquations:
    def test_fermat_hypersurface_single_row(self):
        par = StandardParameter(2, 3, ())
        system = equations(par, 3)
        assert system.polynomial_text() == ("x1^3 + x2^3 + x3^3 + x4^3",)

    def test_surface_example_rows(self):
        par = StandardParameter(2, 4, ((Fraction(2), Fraction(3)),))
        system = equations(par, 4)
        matrix = system.coefficient_matrix
        assert matrix.row(0) == (1, 1, 1, 1, 0)
        assert matrix.row(1) == (2, 3, 1, 0, 1)

    def test_rejects_degenerate_parameter(self):
        with pytest.raises(ValueError):
            equations(par1(1), 2)

    def test_row_support_pattern(self, rng):
        par = random_parameter(3, 7, rng)
        system = equations(par, 2)
        supports = [set(j for j, _ in form) for form in system.forms]
        assert supports[0] == set(range(1, par.d + 3))
        for i, support in enumerate(supports[1:], start=1):
            assert support <= set(range(1, par.d + 2)) | {par.d + 2 + i}
            assert par.d + 2 + i in support


class TestSmoothness:
    def test_valid_parameters_are_smooth(self):
        rng = random.Random(2)
        for _ in range(25):
            d, n = rng.choice([(1, 4), (2, 4), (2, 5), (3, 5)])
            par = random_parameter(d, n, rng)
            assert smoothness_certificate(equations(par, 3))

    def test_zero_entry_fails(self):
        system = EquationSystem.from_table(2, 4, 2, ((Fraction(0), Fraction(3)),))
        assert not smoothness_certificate(system)

    def test_repeated_rows_fail(self):
        row = (Fraction(2), Fraction(3))
        system = EquationSystem.from_table(2, 5, 2, (row, row))
        assert not smoothness_certificate(system)

    def test_matches_general_position(self, rng):
        """Dual route: the minor certificate equals the geometric predicate."""
        from gfermat.arrangement import is_general_position

        for _ in range(40):
            d, n = rng.choice([(1, 4), (2, 5)])
            rows = tuple(
                tuple(rand_fraction(rng, 3) for _ in range(d))
                for _ in range(n - d - 1)
            )
            par = StandardParameter(d, n, rows)
            system = EquationSystem.from_table(d, n, 2, rows)
            duals = [tuple(q) for q in arrangement_of(par).duals]
            assert smoothness_certificate(system) == is_general_position(duals, d)

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(tables(nonzero_rationals), tables()))
    def test_gale_dual_matches_coefficient_minors(self, table):
        """The Gale-dual certificate against the direct sweep of the
        (n-d)-minors of the coefficient matrix."""
        d, n, rows = table
        system = EquationSystem.from_table(d, n, 2, rows)
        assert smoothness_certificate(system) == oracles.smoothness_by_minors(system)


class TestFixedLocus:
    def test_identity_fixes_everything(self):
        t = GfmType(2, 3, 5)
        report = fixed_locus(oracles.deck_identity(3, 5), t)
        assert len(report.components) == 1
        comp = report.components[0]
        assert comp.dimension == t.d
        assert comp.indices == tuple(range(1, 7))

    def test_generator_fixed_locus_has_codimension_one(self):
        for d, k, n in [(2, 3, 4), (3, 2, 5), (2, 2, 5)]:
            t = GfmType(d, k, n)
            for j in range(1, n + 2):
                report = fixed_locus(oracles.generator(k, n, j), t)
                assert len(report.components) == 1
                comp = report.components[0]
                assert comp.dimension == d - 1
                assert (comp.subtype_d, comp.subtype_n) == (d - 1, n - 1)
                assert j not in comp.indices

    def test_cubic_surface_example(self):
        """Element (1,1,2,0) on the Fermat cubic surface: exactly one
        component, dimension zero, three points."""
        t = GfmType(2, 3, 3)
        report = fixed_locus(GroupElement(3, (1, 1, 2, 0)), t)
        assert len(report.components) == 1
        comp = report.components[0]
        assert comp.dimension == 0
        assert comp.indices == (1, 2)
        assert comp.point_count == 3

    def test_diagonal_shift_invariance(self):
        rng = random.Random(8)
        t = GfmType(2, 4, 5)
        for _ in range(200):
            exps = [rng.randrange(4) for _ in range(6)]
            shift = rng.randrange(4)
            g1 = GroupElement(4, tuple(exps))
            g2 = GroupElement(4, tuple((m + shift) % 4 for m in exps))
            assert g1 == g2
            assert fixed_locus(g1, t) == fixed_locus(g2, t)

    def test_inverse_invariance(self):
        rng = random.Random(9)
        t = GfmType(1, 5, 4)
        for _ in range(200):
            g = GroupElement(5, tuple(rng.randrange(5) for _ in range(5)))
            direct = fixed_locus(g, t)
            inv = fixed_locus(oracles.deck_power(g, -1), t)
            assert {(c.indices, c.dimension) for c in direct.components} == \
                   {(c.indices, c.dimension) for c in inv.components}

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_level_set_oracle(self, data):
        """The median rule, or the level counts over the first d+1
        coordinates when n < 2d, give the report of the full level-set
        scan, for k up to 10^30 and n up to 12; the exponents are raw values
        drawn from at most four levels, so level sets of every size occur."""
        k = data.draw(st.one_of(st.integers(2, 9), st.integers(2, 10**30)))
        n = data.draw(st.integers(2, 12))
        d = data.draw(st.integers(1, n - 1))
        levels = data.draw(st.lists(st.integers(-k, 2 * k), min_size=1, max_size=4))
        exps = data.draw(st.lists(st.sampled_from(levels), min_size=n + 1, max_size=n + 1))
        g, t = GroupElement(k, tuple(exps)), GfmType(d, k, n)
        expected = oracles.fixed_locus_by_level_sets(g, t)
        assert fixed_locus(g, t) == expected

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_level_at_the_threshold_matches_the_oracle(self, data):
        """One level on exactly n+1-d coordinates (a component) or n-d (none),
        at random places, the rest drawn from at most three other levels, so
        the level may lie at either end of the sorted first 2d+1 exponents."""
        k = data.draw(st.integers(2, 9))
        n = data.draw(st.integers(2, 14))
        d = data.draw(st.integers(1, n - 1))
        size = data.draw(st.sampled_from([n + 1 - d, n - d]))
        level = data.draw(st.integers(0, k - 1))
        others = [m for m in range(k) if m != level]
        pool = data.draw(st.lists(st.sampled_from(others), min_size=1, max_size=3))
        rest = data.draw(st.lists(st.sampled_from(pool), min_size=n + 1 - size,
                                  max_size=n + 1 - size))
        exps = data.draw(st.permutations([level] * size + rest))
        g, t = GroupElement(k, tuple(exps)), GfmType(d, k, n)
        report = fixed_locus(g, t)
        assert report == oracles.fixed_locus_by_level_sets(g, t)
        if size == n + 1 - d:
            assert any(len(c.indices) == size for c in report.components)

    def test_large_n_matches_the_oracle(self):
        """n = 10^4 at d = 1 and 3: random elements, and elements with one
        level on exactly n+1-d or n-d coordinates, the others first or at
        random places."""
        rng = random.Random(37)
        n, k = 10**4, 5
        for d in (1, 3):
            t = GfmType(d, k, n)
            cases = [[rng.randrange(k) for _ in range(n + 1)] for _ in range(3)]
            for size in (n + 1 - d, n - d):
                for other in (1, 4):
                    exps = [other] * (n + 1 - size) + [0] * size
                    cases += [exps, rng.sample(exps, n + 1)]
            for exps in cases:
                g = GroupElement(k, tuple(exps))
                assert fixed_locus(g, t) == oracles.fixed_locus_by_level_sets(g, t)

    def test_dimension_bookkeeping(self):
        rng = random.Random(10)
        t = GfmType(3, 3, 7)
        for _ in range(200):
            g = GroupElement(3, tuple(rng.randrange(3) for _ in range(8)))
            for comp in fixed_locus(g, t).components:
                assert comp.subtype_d == len(comp.indices) - (t.n + 1 - t.d)
                assert comp.subtype_d >= 0
                assert comp.subtype_n >= comp.subtype_d + 1


def count_projective_solutions(system, k2, support, free_values):
    """Brute-force count of points on the emitted equations whose support
    is ``support`` (1-based), scanning the free coordinates over
    ``free_values`` with the first support coordinate pinned to 1."""
    count = 0
    zero = CyclotomicScalar.zero(k2)
    one = CyclotomicScalar.one(k2)
    rest = support[1:]
    for combo in itertools.product(free_values, repeat=len(rest)):
        point = [zero] * (system.n + 1)
        point[support[0] - 1] = one
        for idx, value in zip(rest, combo):
            point[idx - 1] = value
        good = True
        for i in range(system.coefficient_matrix.rows):
            acc = zero
            for j in range(system.n + 1):
                coeff = system.coefficient_matrix.entry(i, j)
                if coeff != 0 and point[j] != 0:
                    power = point[j]
                    for _ in range(system.k - 1):
                        power = power * point[j]
                    acc = acc + power * coeff
            if acc != 0:
                good = False
                break
        if good:
            count += 1
    return count


class TestBruteForcePointCounts:
    """Exhaustive solves over small cyclotomic evaluations confirm the
    k^{n'} point count of dimension-zero components."""

    def test_genus_one_curve_generator(self):
        # type (1; 2, 3): Fix(phi_1) should be 2^2 = 4 points
        par = par1(2)
        system = equations(par, 2)
        report = fixed_locus(oracles.generator(2, 3, 1), GfmType(1, 2, 3))
        comp = report.components[0]
        assert comp.point_count == 4
        # coordinates of solutions are 4th roots of unity
        roots = [CyclotomicScalar.zeta(4, j) for j in range(4)]
        found = count_projective_solutions(system, 4, comp.indices, roots)
        assert found == comp.point_count

    def test_fermat_cubic_curve_generator(self):
        # type (1; 3, 2): the classical Fermat cubic, 3^1 = 3 points
        par = StandardParameter(1, 2, ())
        system = equations(par, 3)
        report = fixed_locus(oracles.generator(3, 2, 1), GfmType(1, 3, 2))
        comp = report.components[0]
        assert comp.point_count == 3
        roots = [CyclotomicScalar.zeta(6, j) for j in range(6)]
        found = count_projective_solutions(system, 6, comp.indices, roots)
        assert found == comp.point_count

    def test_cubic_surface_example_points(self):
        # the three fixed points of (1,1,2,0) on the Fermat cubic surface
        par = StandardParameter(2, 3, ())
        system = equations(par, 3)
        report = fixed_locus(GroupElement(3, (1, 1, 2, 0)), GfmType(2, 3, 3))
        comp = report.components[0]
        roots = [CyclotomicScalar.zeta(6, j) for j in range(6)]
        found = count_projective_solutions(system, 6, comp.indices, roots)
        assert found == comp.point_count == 3


# k at the digit-width edges of the packing: 2k - 2 a power of two, and
# k a power of two (the least room above the digit sums).
EDGE_K = (2, 3, 4, 5, 8, 9, 16, 17, 32, 33)
# Degrees far past one machine word, with the divisors q taken for
# generators (k/q) v of order q.
BIG_K = {2**64 + 1: (274177,), 10**30: (2, 4, 5, 8, 10, 16, 25)}


@st.composite
def subgroup_cases(draw):
    """(k, n, d, generator vectors) with n 2..5, d 1..n-1: raw vectors in
    -k..2k (not canonical), the zero vector, repeats, or none, for k at the
    digit-width edges; for a huge k, vectors (k/q) v with q | k, shifted
    along the diagonal (the same element)."""
    n = draw(st.integers(2, 5))
    d = draw(st.integers(1, n - 1))
    if draw(st.integers(0, 3)):
        k = draw(st.sampled_from(EDGE_K))
        vector = st.lists(st.integers(-k, 2 * k), min_size=n + 1, max_size=n + 1)
    else:
        k = draw(st.sampled_from(sorted(BIG_K)))
        vector = st.builds(
            lambda q, v, shift: [k // q * m + shift for m in v],
            st.sampled_from(BIG_K[k]),
            st.lists(st.integers(-3, 3), min_size=n + 1, max_size=n + 1),
            st.integers(-k, 2 * k),
        )
    gens = draw(st.lists(vector, max_size=4))
    if draw(st.booleans()):
        gens.append([0] * (n + 1))
    if gens:
        gens = draw(st.permutations(gens + draw(st.lists(st.sampled_from(gens), max_size=2))))
    return k, n, d, gens


@st.composite
def small_k_cases(draw):
    """(k, n, d, generator vectors) with k 2..12, composite included, and n
    2..6: entries biased to 0, each vector times a divisor of k, so that
    a column's gcd with k is often a proper divisor."""
    k = draw(st.integers(2, 12))
    n = draw(st.integers(2, 6))
    d = draw(st.integers(1, n - 1))
    entry = st.one_of(st.just(0), st.integers(0, k - 1))
    vector = st.builds(lambda q, v: [q * m for m in v],
                       st.sampled_from([q for q in range(1, k + 1) if k % q == 0]),
                       st.lists(entry, min_size=n + 1, max_size=n + 1))
    return k, n, d, draw(st.lists(vector, max_size=4))


@st.composite
def composite_cyclic_cases(draw):
    """(k, n, d, generator vector) with composite k in {12, 30, 60} and n
    2..6: a vector times a divisor of k, so that its order is often a
    proper divisor of k."""
    k = draw(st.sampled_from([12, 30, 60]))
    n = draw(st.integers(2, 6))
    d = draw(st.integers(1, n - 1))
    q = draw(st.sampled_from([q for q in range(1, k) if k % q == 0]))
    return k, n, d, [q * m for m in draw(st.lists(st.integers(0, k - 1), min_size=n + 1,
                                                   max_size=n + 1))]


def unpack(x, k, n):
    """The exponent tuple of a packed element: coordinate j is digit n-j of
    w bits, with 2^(w-1) the least power of two >= 2k-1."""
    w = (2 * k - 2).bit_length() + 1
    return tuple((x >> w * (n - j)) % 2**w for j in range(n + 1))


def basis_closure(gens, k, n, budget):
    """The closure formed from the triangular basis, decoded, after the
    checks that it starts with the identity and forms each of the basis
    order's elements once."""
    pivots, order = _triangular_basis(gens, k, n, budget)
    closure = [unpack(x, k, n) for x in _subgroup_closure(pivots, k, n)]
    assert closure[0] == (0,) * (n + 1)
    assert len(set(closure)) == len(closure) == order
    return closure


class TestFreeActions:
    def test_identity_never_free(self):
        assert not oracles.acts_freely(oracles.deck_identity(2, 5), GfmType(2, 2, 5))

    def test_balanced_involution_is_free(self):
        assert oracles.acts_freely(GroupElement(2, (1, 1, 1, 0, 0, 0)), GfmType(2, 2, 5))

    def test_k2_needs_n_at_least_2d_plus_1(self):
        for d in (1, 2, 3):
            t = GfmType(d, 2, 2 * d)  # n = 2d < 1 + 2d
            elements = [
                GroupElement(2, exps + (0,))
                for exps in itertools.product((0, 1), repeat=2 * d)
            ]
            assert not any(
                oracles.acts_freely(g, t) for g in elements if any(g.exponents)
            )

    def test_unique_free_index_two_subgroup_for_hyperelliptic_range(self):
        """d=1, n=5, k=2: of the 31 index-2 subgroups only the even-weight
        one acts freely."""
        t = GfmType(1, 2, 5)
        free_functionals = []
        for c in itertools.product((0, 1), repeat=5):
            if not any(c):
                continue
            members = [
                GroupElement(2, exps + (0,))
                for exps in itertools.product((0, 1), repeat=5)
                if sum(a * b for a, b in zip(c, exps)) % 2 == 0
            ]
            result = subgroup_acts_freely(members, t)
            assert result.subgroup_order == 16
            if result.free:
                free_functionals.append(c)
        assert free_functionals == [(1, 1, 1, 1, 1)]

    def test_offending_element_reported(self):
        t = GfmType(2, 2, 5)
        gens = [oracles.generator(2, 5, 1)]
        result = subgroup_acts_freely(gens, t)
        assert not result.free
        assert result.offending == gens[0]

    def test_least_offender_is_not_the_first_formed(self):
        """g = (2, 2, 2, 0) and (0, 0, 1, 0) generate 9 elements: the closure
        forms the first pivot row 2g = (1, 1, 1, 0) right after the identity
        and (0, 0, 1, 0) later; both have a level set of n+1-d = 3
        coordinates, and the lesser is reported.  Alone, g and 2g both have
        one, and the lesser 2g is reported."""
        t = GfmType(1, 3, 3)
        g = GroupElement(3, (2, 2, 2, 0))
        gens = [g, GroupElement(3, (0, 0, 1, 0))]
        closure = basis_closure(gens, 3, 3, 10)
        assert closure[:4] == [(0, 0, 0, 0), (1, 1, 1, 0), (2, 2, 2, 0), (0, 0, 1, 0)]
        assert not oracles.acts_freely(GroupElement(3, closure[1]), t)
        assert set(closure) == set(oracles.coset_closure(gens, 3, 3, 10))
        result = subgroup_acts_freely(gens, t)
        assert result == oracles.subgroup_acts_freely(gens, t, 10)
        assert result.offending == GroupElement(3, (0, 0, 1, 0))
        assert not oracles.acts_freely(g, t)
        result = subgroup_acts_freely([g], t)
        assert result == oracles.subgroup_acts_freely([g], t, 10)
        assert result.offending == GroupElement(3, (1, 1, 1, 0))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 5).flatmap(lambda k: st.integers(1, 4).flatmap(
        lambda n: st.tuples(st.just(k), st.just(n), st.lists(
            st.lists(st.integers(-k, 2 * k), min_size=n + 1, max_size=n + 1), max_size=3)))))
    def test_closure_matches_element_closure(self, case):
        """Forming the sums of the basis rows gives the subgroup that closing
        over validated group elements gives (the budget k^n refuses no
        subgroup), identity first and each element once."""
        k, n, gens = case
        gens = [GroupElement(k, tuple(g)) for g in gens]
        closure = {GroupElement(k, x) for x in basis_closure(gens, k, n, k**n)}
        assert closure == oracles.subgroup_closure(gens, k, n, k**n)

    @settings(max_examples=40, deadline=None)
    @given(subgroup_cases())
    def test_packed_closure_is_the_coset_closure(self, case):
        """Decoded, the packed closure is the tuple coset closure as a set,
        identity first and each element once, for every subgroup of order
        up to 300 (past its budget, ``subgroup_acts_freely`` forms no
        element)."""
        k, n, _, gens = case
        gens = [GroupElement(k, tuple(g)) for g in gens]
        try:
            expected = oracles.coset_closure(gens, k, n, 300)
        except BudgetExceeded:
            return
        assert set(basis_closure(gens, k, n, 300)) == set(expected)

    @settings(max_examples=200, deadline=None)
    @given(subgroup_cases(), st.integers(1, 300))
    def test_subgroup_acts_freely_matches_oracle(self, case, budget):
        """The basis and the path it selects give the oracle's (free,
        offending, order) or its budget refusal text, over empty, repeated,
        trivial and non-canonical generator lists; the closure is the
        oracle's subgroup, formed identity first and each element once."""
        k, n, d, gens = case
        t = GfmType(d, k, n)
        gens = [GroupElement(k, tuple(g)) for g in gens]

        def outcome(scan):
            try:
                result = scan(gens, t, budget)
            except BudgetExceeded as exc:
                return str(exc)
            return result.free, result.offending, result.subgroup_order

        expected = outcome(oracles.subgroup_acts_freely)
        assert outcome(subgroup_acts_freely) == expected
        if not isinstance(expected, str):
            closure = {GroupElement(k, x) for x in basis_closure(gens, k, n, budget)}
            assert closure == oracles.subgroup_closure(gens, k, n, budget)

    @settings(max_examples=200, deadline=None)
    @given(small_k_cases(), st.integers(1, 500))
    def test_basis_order_is_the_closure_order(self, case, budget):
        """The triangular basis gives the coset closure's order, or its
        refusal text; each pivot h divides k and leads its row."""
        k, n, _, gens = case
        gens = [GroupElement(k, tuple(g)) for g in gens]
        try:
            expected = len(oracles.coset_closure(gens, k, n, budget))
        except BudgetExceeded as exc:
            expected = str(exc)
        try:
            pivots, order = _triangular_basis(gens, k, n, budget)
        except BudgetExceeded as exc:
            assert str(exc) == expected
            return
        assert order == expected == math.prod(k // h for _, h, _ in pivots)
        for c, h, row in pivots:
            assert k % h == 0 and row[c] == h and not any(row[:c])

    @settings(max_examples=200, deadline=None)
    @given(small_k_cases(), st.integers(1, 500))
    def test_each_path_matches_oracle(self, case, budget):
        """The candidate path and the enumeration path, each called on its
        own, give the oracle's (free, offending, order), or the basis gives
        its refusal text, so the selection rule hides neither path."""
        k, n, d, gens = case
        t = GfmType(d, k, n)
        gens = [GroupElement(k, tuple(g)) for g in gens]
        try:
            result = oracles.subgroup_acts_freely(gens, t, budget)
            expected = result.free, result.offending, result.subgroup_order
        except BudgetExceeded as exc:
            expected = str(exc)
        try:
            pivots, order = _triangular_basis(gens, k, n, budget)
        except BudgetExceeded as exc:
            assert str(exc) == expected
            return
        for offending in (_offender_by_candidates(pivots, d, k, n),
                          _offender_by_enumeration(pivots, d, k, n)):
            assert (offending is None, offending, order) == expected

    @settings(max_examples=200, deadline=None)
    @given(composite_cyclic_cases())
    def test_cyclic_enumeration_at_composite_k(self, case):
        """On a cyclic subgroup at composite k, where the selection rule
        picks the enumeration path, that path gives the oracle's (free,
        offending); the basis may hold a pivot below k with a leftover row."""
        k, n, d, g = case
        t = GfmType(d, k, n)
        gens = [GroupElement(k, tuple(g))]
        pivots, order = _triangular_basis(gens, k, n, k)
        assume(_candidate_count(d, k, n) * len(pivots) >= 2 * order)
        result = oracles.subgroup_acts_freely(gens, t, k)
        offending = _offender_by_enumeration(pivots, d, k, n)
        assert (offending is None, offending, order) == (
            result.free, result.offending, result.subgroup_order)

    def test_order_q_subgroup_past_two_words(self):
        """k = 2^64 + 1 = 274177 * 67280421310721 (2k - 2 is a power of two):
        (k/q)(1, 1, 0) generates q = 274177 elements whose first two
        exponents agree, a level set of n+1-d = 2 coordinates, so every
        nontrivial element has a fixed point and the generator is the least."""
        k, q = 2**64 + 1, 274177
        gens = [GroupElement(k, (k // q, k // q, 0))]
        assert set(basis_closure(gens, k, 2, q)) == set(oracles.coset_closure(gens, k, 2, q))
        assert subgroup_acts_freely(gens, GfmType(1, k, 2), q) == FreeActionResult(False, gens[0], q)

    def test_refusal_text_at_small_budget(self):
        """The 24 unit vectors generate 2^24 elements: a budget of 1000 is
        refused with the text of an element-by-element count."""
        gens = list(oracles.canonical_generators(2, 24)[:24])
        with pytest.raises(BudgetExceeded) as exc:
            subgroup_acts_freely(gens, GfmType(1, 2, 24), budget=1000)
        assert str(exc.value) == "enumeration needs 1001 steps, budget is 1000"

    def test_fixed_locus_is_the_level_set_oracle(self):
        """Every element of every type with k <= 4 and n <= 4, of the
        benchmark's classes (2;3,5), (2;4,6) and (3;3,7), of (3;2,6) at the
        boundary n = 2d, and of types with n < 2d, where elements with two
        components occur."""
        small = [(d, k, n) for k in range(2, 5) for n in range(2, 5) for d in range(1, n)]
        two_components = 0
        for d, k, n in small + [(2, 3, 5), (2, 4, 6), (3, 3, 7), (3, 2, 6), (3, 3, 5), (4, 2, 6)]:
            t = GfmType(d, k, n)
            for exps in itertools.product(range(k), repeat=n):
                g = GroupElement(k, exps + (0,))
                report = fixed_locus(g, t)
                assert report == oracles.fixed_locus_by_level_sets(g, t)
                two_components += len(report.components) == 2
        assert two_components > 0

    def test_bound_feasible(self):
        assert not bound_feasible(3, 1, 4)      # r = 1 never feasible
        assert not bound_feasible(2, 2, 5)      # (2^2-1)/(2-1) = 3 < 6
        assert bound_feasible(2, 5, 5)          # 31 >= 6
        assert bound_feasible(3, 3, 5)          # 13 >= 6


def diagonal_matrix(k, n, j, power=1):
    zeta = CyclotomicScalar.zeta(k, power)
    rows = []
    for r in range(n + 1):
        row = [CyclotomicScalar.zero(k)] * (n + 1)
        row[r] = zeta if r == j - 1 else CyclotomicScalar.one(k)
        rows.append(row)
    return ExactMatrix.from_rows(rows)


def permutation_matrix(images):
    n = len(images)
    rows = []
    for r in range(n):
        row = [Fraction(0)] * n
        row[images[r]] = Fraction(1)
        rows.append(row)
    return ExactMatrix.from_rows(rows)


@st.composite
def roots_of_unity(draw, k, other, aligned):
    """A root of unity of order k or ``other``, or a rational; when
    ``aligned`` its k-th power is 1 (then any permutation the parameter
    admits lifts), otherwise its exponent is free."""
    order = draw(st.sampled_from((None, k, other)))
    if order is None:
        if aligned:
            return Fraction(draw(st.sampled_from((1, -1) if k % 2 == 0 else (1,))))
        return draw(st.sampled_from((Fraction(1), Fraction(-1), Fraction(2), Fraction(-1, 3))))
    power = draw(st.integers(0, order - 1))
    if aligned and order != k:  # an even power of a 2k-th root, or 1 for q coprime to k
        power = power - power % 2 if order == 2 * k else 0
    return CyclotomicScalar.zeta(order, power)


@st.composite
def verifier_cases(draw):
    """(matrix, parameter, k): d 1..3, n d+1..d+4, k 2..12, parameters mostly
    in general position.  The matrix is a deck diagonal or a permutation lift
    whose entries mix the orders k and 2k, or k and the least prime q not
    dividing k (one case in two with every k-th power 1), or a non-monomial
    matrix of rationals or of roots of unity, half of those made singular by
    a repeated row."""
    d, n, rows = draw(tables(entries=nonzero_rationals, extra=4))
    par = StandardParameter(d, n, rows)
    assume(is_standard_parameter(par) or draw(st.integers(0, 4)) == 0)
    k = draw(st.integers(2, 12))
    other = draw(st.sampled_from((2 * k, next(q for q in (2, 3, 5, 7) if k % q))))
    size = n + 1
    kind = draw(st.sampled_from(("deck", "lift", "rational", "cyclotomic")))
    if kind in ("deck", "lift"):
        images = list(range(size)) if kind == "deck" else draw(st.permutations(range(size)))
        aligned = draw(st.booleans())
        matrix = [[Fraction(0)] * size for _ in range(size)]
        for r, c in enumerate(images):
            matrix[r][c] = draw(roots_of_unity(k, other, aligned))
        return ExactMatrix.from_rows(matrix), par, k
    if kind == "rational":
        cell = st.sampled_from((Fraction(0), Fraction(1), Fraction(-2), Fraction(3, 4)))
    else:
        cell = st.one_of(st.just(Fraction(0)), roots_of_unity(k, other, False))
    matrix = [[draw(cell) for _ in range(size)] for _ in range(size)]
    matrix[0][0], matrix[0][1] = Fraction(1), Fraction(1)  # never monomial
    if draw(st.booleans()):
        i = draw(st.integers(1, size - 1))
        matrix[i] = list(matrix[i - 1])
    return ExactMatrix.from_rows(matrix), par, k


def count_det_mod(monkeypatch):
    """The primes of the ``modp.det_mod`` calls made from now on, in order."""
    calls = []
    det_mod = modp.det_mod

    def counting(rows, p):
        calls.append(p)
        return det_mod(rows, p)

    monkeypatch.setattr(modp, "det_mod", counting)
    return calls


def verdict(verifier, case):
    """The verifier's answer, or the message of the ValueError it raises."""
    try:
        return verifier(*case)
    except ValueError as exc:
        return f"ValueError: {exc}"


class TestLinearAutomorphismVerifier:
    def test_deck_group_diagonals_accepted(self):
        par = StandardParameter(2, 4, ((Fraction(2), Fraction(3)),))
        for j in range(1, 6):
            for power in range(3):
                matrix = diagonal_matrix(3, 4, j, power)
                assert is_linear_automorphism(matrix, par, 3)

    def test_fermat_hypersurface_coordinate_permutations(self):
        par = StandardParameter(2, 3, ())
        for images in itertools.permutations(range(4)):
            assert is_linear_automorphism(permutation_matrix(images), par, 3)

    def test_two_nonzero_entries_in_a_row_rejected(self):
        par = StandardParameter(2, 3, ())
        matrix = ExactMatrix.from_rows([
            [1, 1, 0, 0],
            [0, 1, 0, 0],
            [0, 0, 1, 0],
            [0, 0, 0, 1],
        ])
        assert not is_linear_automorphism(matrix, par, 3)

    def test_random_non_monomial_invertible_rejected(self, rng):
        par = StandardParameter(2, 3, ())
        rejected = 0
        while rejected < 20:
            rows = [[rand_fraction(rng, 3) for _ in range(4)] for _ in range(4)]
            matrix = ExactMatrix.from_rows(rows)
            monomial = all(
                sum(1 for x in matrix.row(i) if x != 0) == 1 for i in range(4)
            )
            if monomial or oracles.det(matrix) == 0:
                continue
            assert not is_linear_automorphism(matrix, par, 2)
            rejected += 1

    def test_singular_matrix_raises(self):
        par = StandardParameter(2, 3, ())
        matrix = ExactMatrix.from_rows([
            [1, 0, 0, 0],
            [1, 0, 0, 0],
            [0, 0, 1, 0],
            [0, 0, 0, 1],
        ])
        with pytest.raises(ValueError):
            is_linear_automorphism(matrix, par, 2)

    def test_wrong_permutation_rejected_by_span_check(self):
        # a coordinate swap is monomial but does not stabilize a generic
        # parameter, so the substituted forms leave the ideal
        par = par1(2, 3)
        matrix = permutation_matrix([1, 0, 2, 3, 4])
        assert not is_linear_automorphism(matrix, par, 2)

    def test_accepted_matrices_permute_the_arrangement(self):
        par = StandardParameter(2, 3, ())
        stabilizer = {
            eta.one_line() for eta in orbit_and_stabilizer(par).stabilizer
        }
        for images in itertools.permutations(range(4)):
            matrix = permutation_matrix(images)
            assert is_linear_automorphism(matrix, par, 3)
            induced = oracles.induced_hyperplane_permutation(matrix)
            assert induced.one_line() in stabilizer
            assert act(induced, par) == par

    def test_diagonal_induces_identity_permutation(self):
        matrix = diagonal_matrix(4, 3, 2)
        assert oracles.induced_hyperplane_permutation(matrix).is_identity()

    def test_harmonic_curve_nontrivial_symmetry(self):
        """On the harmonic genus-one curve (lambda = -1, k = 2) the swap of
        the first two coordinates lifts to an automorphism only with an
        extra twist of the last coordinate by a primitive fourth root of
        unity; the induced hyperplane transposition stabilizes the
        parameter."""
        par = par1(-1)
        i4 = CyclotomicScalar.zeta(4)
        twisted = ExactMatrix.from_rows([
            [0, 1, 0, 0],
            [1, 0, 0, 0],
            [0, 0, 1, 0],
            [Fraction(0), Fraction(0), Fraction(0), i4],
        ])
        assert is_linear_automorphism(twisted, par, 2)
        induced = oracles.induced_hyperplane_permutation(twisted)
        assert induced.one_line() == (2, 1, 3, 4)
        assert act(induced, par) == par
        # without the twist the substituted form leaves the ideal
        plain = permutation_matrix([1, 0, 2, 3])
        assert not is_linear_automorphism(plain, par, 2)

    def test_matches_per_form_power_oracle(self, rng):
        """Raising each row's entry to the k-th power once gives the same
        verdicts as raising it again for every form: deck diagonals,
        twisted permutation lifts and non-monomial matrices."""
        cases = []
        par25 = StandardParameter(2, 5, ((Fraction(2), Fraction(3)), (Fraction(5), Fraction(7))))
        for k in (2, 5, 10):
            for j in (1, 4, 6):
                cases.append((diagonal_matrix(k, 5, j, k - 1), par25, k))
        harmonic = par1(-1)
        for images in itertools.permutations(range(4)):
            for power in range(4):
                rows = [list(permutation_matrix(images).row(r)) for r in range(4)]
                rows[3][images[3]] = CyclotomicScalar.zeta(4, power)
                cases.append((ExactMatrix.from_rows(rows), harmonic, 2))
        while len(cases) < 120:
            rows = [[rand_fraction(rng, 3) for _ in range(5)] for _ in range(5)]
            if oracles.det(ExactMatrix.from_rows(rows)) != 0:
                cases.append((ExactMatrix.from_rows(rows), par1(2, 3), 3))
        verdicts = [is_linear_automorphism(*case) for case in cases]
        assert verdicts == [oracles.is_linear_automorphism(*case) for case in cases]
        assert True in verdicts and False in verdicts

    def test_non_root_entries_raised_in_their_own_field(self):
        """On the harmonic parameter the anti-diagonal with squares
        (1, 1, 2, 2) preserves the span at k = 2.  Scaled by 3 zeta_8, its
        entries 3 (1 + i) lie in Q(zeta_4) and are no root multiples: each
        is squared there and promoted to Q(zeta_8), and its coefficients
        enter W b next to the squares 9 zeta_8^2 of the others.  With
        3 (1 - i) in the last slot it is rejected."""
        first = CyclotomicScalar.zeta(8) * 3
        for sign, accepted in ((1, True), (-1, False)):
            diagonal = [first, first, CyclotomicScalar.from_poly(4, [3, 3]),
                        CyclotomicScalar.from_poly(4, [3, 3 * sign])]
            rows = [[x if c == 3 - r else Fraction(0) for c in range(4)]
                    for r, x in enumerate(diagonal)]
            case = (ExactMatrix.from_rows(rows), par1(-1), 2)
            assert is_linear_automorphism(*case) is accepted
            assert oracles.is_linear_automorphism(*case) is accepted

    def test_mixed_order_powers_share_a_field(self):
        """k-th powers that are 1 in Q(zeta_4), Q(zeta_2) and Q(zeta_3) are
        compared in one field: the twisted diagonal is accepted, and with one
        power -1 it is rejected.  diag(zeta_4, -1, 1, zeta_3) is accepted at
        k = 12 and rejected at k = 6, where the last relative power is
        zeta_12^6 = -1, a root of unity of a proper subfield."""
        fermat = StandardParameter(2, 3, ())
        for first, last, k, accepted in (
                (CyclotomicScalar.zeta(4, 2), CyclotomicScalar.zeta(3, 0), 2, True),
                (CyclotomicScalar.zeta(4, 1), CyclotomicScalar.zeta(3, 0), 2, False),
                (CyclotomicScalar.zeta(4, 1), CyclotomicScalar.zeta(3, 1), 12, True),
                (CyclotomicScalar.zeta(4, 1), CyclotomicScalar.zeta(3, 1), 6, False)):
            diagonal = [first, CyclotomicScalar.zeta(2, 1), Fraction(1), last]
            rows = [[x if c == r else Fraction(0) for c in range(4)]
                    for r, x in enumerate(diagonal)]
            case = (ExactMatrix.from_rows(rows), fermat, k)
            assert is_linear_automorphism(*case) is accepted
            assert oracles.is_linear_automorphism(*case) is accepted

    @settings(max_examples=150, deadline=None)
    @given(verifier_cases())
    def test_matches_cyclotomic_solve_oracle(self, case):
        """The read-off span test and the lift, rank and solve reference give
        the same verdicts and the same ValueError messages."""
        expected = verdict(oracles.is_linear_automorphism, case)
        assert verdict(is_linear_automorphism, case) == expected


class TestSplitPrimeCertificates:
    """A monomial matrix's span certificate modulo a split prime only ever
    rejects; a non-monomial matrix is decided by its determinants modulo
    split primes alone (``modp.is_singular``)."""

    FERMAT = StandardParameter(2, 3, ())

    def test_a_span_certificate_never_accepts(self):
        """diag(a, 1, 1, 1) with a = 1 + p mod p, or a = (1 + p) zeta_3:
        every span equation holds mod p, yet a^k != 1, so the exact check
        rejects."""
        p, _ = next(split_primes(1))
        q, _ = next(split_primes(3))
        for first, k in ((Fraction(1 + p), 2), (CyclotomicScalar.zeta(3) * (1 + q), 3)):
            case = (ExactMatrix.from_rows(
                [[first if c == r == 0 else Fraction(int(c == r)) for c in range(4)]
                 for r in range(4)]), self.FERMAT, k)
            assert is_linear_automorphism(*case) is False
            assert oracles.is_linear_automorphism(*case) is False

    def test_a_determinant_zero_mod_p_takes_the_exact_path(self):
        """det = p, and det = zeta_3 - g with g the image of zeta_3: both are
        0 at the first split prime's first root and nonzero, so the matrices
        are rejected, not refused as singular: the rational one by its
        integer determinant, the cyclotomic one at the second root of Phi_3,
        where zeta_3 - g goes to g^2 - g."""
        p, _ = next(split_primes(1))
        q, g = next(split_primes(3))
        for head in (Fraction(p), CyclotomicScalar.zeta(3) - g):
            rows = [[Fraction(int(c == r)) for c in range(4)] for r in range(4)]
            rows[0][:2] = [head, Fraction(1)]
            case = (ExactMatrix.from_rows(rows), self.FERMAT, 2)
            assert oracles.det(ExactMatrix.from_rows(rows)) != 0
            assert is_linear_automorphism(*case) is False
            assert oracles.is_linear_automorphism(*case) is False

    def test_a_determinant_in_p_z_zeta_takes_a_second_prime(self, monkeypatch):
        """det = q zeta_3, with q the first split prime for L = 3, vanishes
        at both roots of Phi_3 mod q; B^2 = q^2 + 1 > q^2, so a second prime
        is taken, and its first root proves the determinant nonzero."""
        q, _ = next(split_primes(3))
        rows = [[Fraction(int(c == r)) for c in range(4)] for r in range(4)]
        rows[0][:2] = [Fraction(q), Fraction(1)]
        rows[3][3] = CyclotomicScalar.zeta(3)
        calls = count_det_mod(monkeypatch)
        assert is_linear_automorphism(ExactMatrix.from_rows(rows), self.FERMAT, 2) is False
        assert calls == [q, q, next(p for p, _ in split_primes(3) if p > q)]

    @pytest.mark.parametrize("singular", (False, True))
    def test_order_one_cells_take_the_integer_determinant(self, singular):
        """Cells of Q(zeta_1) = Q make L = 1.  With a p in the corner the
        determinant is 0 modulo the first split prime p, so the integer
        determinant decides: nonzero is rejected, and a repeated row is
        refused as singular."""
        p, _ = next(split_primes(1))

        def cell(value):
            return CyclotomicScalar.from_rational(1, value)

        rows = [[cell(int(c == r)) for c in range(4)] for r in range(4)]
        rows[0][:2] = [cell(Fraction(p, 3)), cell(Fraction(1, 3))]
        if singular:
            rows[3] = rows[0]
        matrix = ExactMatrix.from_rows(rows)
        assert (oracles.det(matrix) == 0) is singular
        assert verdict(is_linear_automorphism, (matrix, self.FERMAT, 2)) == \
            ("ValueError: matrix is singular" if singular else False)

    def test_nonsingular_matrices_take_no_exact_determinant(self, monkeypatch):
        """Nonsingular matrices of mixed orders are rejected by one
        determinant modulo the first split prime, at its first root."""
        rng = random.Random(11)
        cases = []
        while len(cases) < 30:
            order = rng.choice((1, 3, 4, 5, 12))
            cell = [Fraction(0), Fraction(1), Fraction(-2), Fraction(3, 4),
                    CyclotomicScalar.zeta(order, rng.randrange(order)),
                    CyclotomicScalar.zeta(rng.choice((2, 3)), 1) * rand_fraction(rng, 3)]
            rows = [[rng.choice(cell) for _ in range(4)] for _ in range(4)]
            rows[0][:2] = [Fraction(1), Fraction(1)]
            matrix = ExactMatrix.from_rows(rows)
            field = math.lcm(*(x.order for x in matrix.entries if isinstance(x, CyclotomicScalar)))
            lifted = ExactMatrix(4, 4, tuple(
                x.promote(field) if isinstance(x, CyclotomicScalar)
                else CyclotomicScalar.from_rational(field, x) for x in matrix.entries))
            if oracles.det_cofactor(lifted) != 0:
                cases.append(matrix)
        calls = count_det_mod(monkeypatch)
        for matrix in cases:
            calls.clear()
            assert is_linear_automorphism(matrix, self.FERMAT, 3) is False
            assert len(calls) == 1

    def test_monomial_rejections_raise_no_power(self, monkeypatch):
        """diag(2, 1, 1, 1), and 1 + zeta_5 (no root of unity times a
        rational) in the first cell, are rejected at k = 10^9 by the span
        certificate, before any exact power is formed."""
        def refuse(x, e):
            raise AssertionError("formed an exact power")

        monkeypatch.setattr("gfermat.fermatgroup._power", refuse)
        for first in (Fraction(2), CyclotomicScalar.from_poly(5, [1, 1])):
            rows = [[first if c == r == 0 else Fraction(int(c == r)) for c in range(4)]
                    for r in range(4)]
            assert is_linear_automorphism(ExactMatrix.from_rows(rows), self.FERMAT, 10**9) is False

    def test_scaling_by_the_first_entry_accepts_scalar_matrices(self, monkeypatch):
        """diag(2, 2, 2, 2), twisted by fourth roots of unity, is accepted at
        k = 10^9: scaled by 1/2^k, every power is +-1 times a root of unity
        raised exactly, so no entry is squared."""
        monkeypatch.setattr("gfermat.fermatgroup._power", None)
        for twist in (Fraction(1), CyclotomicScalar.zeta(4), CyclotomicScalar.zeta(4, 3)):
            diagonal = [2 * twist, Fraction(2), CyclotomicScalar.zeta(4, 2) * 2, Fraction(-2)]
            rows = [[x if c == r else Fraction(0) for c in range(4)]
                    for r, x in enumerate(diagonal)]
            assert is_linear_automorphism(ExactMatrix.from_rows(rows), self.FERMAT, 10**9)

    def test_seeded_cases_match_the_oracle(self):
        """Monomial and non-monomial matrices with rational, root-of-unity,
        mixed-order and general cyclotomic cells, scaled by rationals, agree
        with the lift, rank and solve reference, ValueError messages
        included."""
        rng = random.Random(28)
        harmonic = par1(-1)
        parameters = [self.FERMAT, harmonic, par1(2, 3),
                      StandardParameter(2, 4, ((Fraction(2), Fraction(3)),))]

        def cell(k):
            kind = rng.randrange(5)
            if kind == 0:
                return rng.choice((Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 3)))
            order = rng.choice((k, 2 * k, 3, 4))
            if kind == 4:  # a general value of Q(zeta_order)
                degree = len(CyclotomicScalar.zeta(order).nums)
                coeffs = [rng.randint(-1, 2) for _ in range(degree)]
                return CyclotomicScalar.from_poly(order, coeffs)
            return CyclotomicScalar.zeta(order, rng.randrange(order)) * rng.choice((1, -1, 2))

        cases = []
        for _ in range(80):
            par = rng.choice(parameters)
            k, size = rng.randint(2, 4), par.n + 1
            images = rng.sample(range(size), size)
            if rng.random() < 0.7:
                rows = [[Fraction(0)] * size for _ in range(size)]
                for r, c in enumerate(images):
                    rows[r][c] = cell(k) or Fraction(1)
                    if rng.random() < 0.5:  # often a root of unity, so often accepted
                        rows[r][c] = CyclotomicScalar.zeta(2 * k, 2 * rng.randrange(k))
            else:
                rows = [[cell(k) if rng.random() < 0.6 else Fraction(0) for _ in range(size)]
                        for _ in range(size)]
                rows[0][:2] = [Fraction(1), Fraction(1)]
                if rng.random() < 0.3:
                    rows[-1] = list(rows[-2])
            cases.append((ExactMatrix.from_rows(rows), par, k))
        got = [verdict(is_linear_automorphism, case) for case in cases]
        assert got == [verdict(oracles.is_linear_automorphism, case) for case in cases]
        assert {True, False, "ValueError: matrix is singular"} <= set(got)


def nullspace(rows, width):
    """A basis of the rational kernel of ``rows`` by Gauss-Jordan elimination."""
    a = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for c in range(width):
        pivot = next((i for i in range(len(pivots), len(a)) if a[i][c]), None)
        if pivot is None:
            continue
        r = len(pivots)
        a[r], a[pivot] = a[pivot], a[r]
        a[r] = [x / a[r][c] for x in a[r]]
        for i in range(len(a)):
            factor = a[i][c]
            if i != r and factor:
                a[i] = [x - factor * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
    basis = []
    for free in (c for c in range(width) if c not in pivots):
        v = [Fraction(0)] * width
        v[free] = Fraction(1)
        for i, c in enumerate(pivots):
            v[c] = -a[i][free]
        basis.append(v)
    return basis


def monomial(support, diagonal):
    """The matrix sending x_r to diagonal[r] x_support[r]."""
    rows = [[Fraction(0)] * len(support) for _ in support]
    for r, (c, x) in enumerate(zip(support, diagonal)):
        rows[r][c] = x
    return ExactMatrix.from_rows(rows)


@st.composite
def free_power_cases(draw):
    """(matrix, parameter, k) with every entry c0 zeta_m0^e0 s_r zeta_M^f,
    s_r = +-1 and M in {1, k, 2k}, in the field of order lcm(m0, M), so the
    entries mix orders, signs and Fractions; one case in two has every
    (s_r zeta_M^f)^k = 1, so the powers are all equal.  The support is the
    identity, or any permutation on the Fermat table."""
    d, n, rows = draw(tables(entries=nonzero_rationals, extra=3))
    if draw(st.booleans()):
        n, rows = d + 1, ()
    par = StandardParameter(d, n, rows)
    assume(is_standard_parameter(par))
    k = draw(st.integers(2, 7))
    c0 = draw(st.sampled_from((Fraction(1), Fraction(-1), Fraction(2, 3), Fraction(-5, 2))))
    m0 = draw(st.sampled_from((1, 3, 4)))
    e0 = draw(st.integers(0, m0 - 1))
    aligned = draw(st.booleans())
    diagonal = []
    for _ in range(n + 1):
        sign, order = draw(st.sampled_from((1, -1))), draw(st.sampled_from((1, k, 2 * k)))
        f = draw(st.integers(0, order - 1))
        odd = sign == -1 and k % 2 == 1  # s^k = -1
        if aligned and order < 2 * k:
            sign = 1 if odd else sign
        elif aligned:
            f = f - f % 2 + odd
        field = math.lcm(m0, order)
        root = CyclotomicScalar.zeta(m0, e0).promote(field) * CyclotomicScalar.zeta(order, f).promote(field)
        diagonal.append(c0 * sign if field == 1 else root * (c0 * sign))
    fermat = n == d + 1
    support = draw(st.permutations(range(n + 1))) if fermat else list(range(n + 1))
    return monomial(support, diagonal), par, k


@st.composite
def rational_monomial_cases(draw):
    """(matrix, parameter, k): monomial matrices of rationals with at least
    two absolute values, so the span certificate runs."""
    d, n, rows = draw(tables(entries=nonzero_rationals, extra=3))
    par = StandardParameter(d, n, rows)
    assume(is_standard_parameter(par))
    cell = st.sampled_from((Fraction(1), Fraction(-1), Fraction(2), Fraction(-3),
                            Fraction(1, 2), Fraction(-5, 3)))
    diagonal = draw(st.lists(cell, min_size=n + 1, max_size=n + 1))
    assume(len({abs(x) for x in diagonal}) > 1)
    support = draw(st.one_of(st.just(list(range(n + 1))), st.permutations(range(n + 1))))
    return monomial(support, diagonal), par, draw(st.integers(2, 6))


class TestMonomialSupport:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_support_and_order_match_the_cell_scan(self, data):
        """The one-pass support and field order against ``bool`` on every
        cell and the lcm over every cyclotomic cell: zero and nonzero cells
        that are ints, Fractions or cyclotomic values of orders 1..12, on
        permutation patterns with cells added or removed, so rows and
        columns with none or two nonzero entries occur, and zero cells of
        any order after the first row with two."""
        size = data.draw(st.integers(1, 5))
        order = st.integers(1, 12)
        zero = st.one_of(st.just(0), st.just(Fraction(0)), order.map(CyclotomicScalar.zero))
        nonzero = st.one_of(
            nonzero_rationals, st.integers(-3, 3).filter(bool),
            st.tuples(order, st.integers(0, 11)).map(lambda t: CyclotomicScalar.zeta(*t)),
            st.tuples(order, st.lists(st.integers(-2, 2), min_size=1, max_size=4)).map(
                lambda t: CyclotomicScalar.from_poly(*t)))
        images = data.draw(st.permutations(range(size)))
        flips = data.draw(st.sets(st.integers(0, size * size - 1), max_size=2))
        cells = [data.draw(nonzero if (c == images[r]) != (r * size + c in flips) else zero)
                 for r in range(size) for c in range(size)]
        matrix = ExactMatrix(size, size, tuple(cells))
        expected = math.lcm(*(x.order for x in cells if isinstance(x, CyclotomicScalar)))
        assert _monomial_support(matrix) == (expected, oracles.monomial_support(matrix))


class TestSpanConditions:
    """The integer span conditions W of a monomial matrix against the span
    test on the coefficient rows (``oracles.in_span``), and each branch that
    reads them against the lift, rank and solve reference."""

    @settings(max_examples=150, deadline=None)
    @given(tables(entries=nonzero_rationals, extra=4), st.data())
    def test_span_matrix_matches_the_form_span(self, table, data):
        """W b = 0 iff the forms' images lie in their span, exactly and mod
        a split prime, for all-equal, random and kernel powers b."""
        d, n, rows = table
        par = StandardParameter(d, n, rows)
        assume(is_standard_parameter(par))
        support = data.draw(st.one_of(st.just(list(range(n + 1))), st.permutations(range(n + 1))))
        span = _span_matrix(_integer_duals(par), support, d)
        assert len(span) == (n - d) * (d + 1) and all(len(row) == n + 1 for row in span)
        kernel = nullspace(span, n + 1)
        candidates = [[Fraction(1)] * (n + 1), *kernel,
                      data.draw(st.lists(nonzero_rationals, min_size=n + 1, max_size=n + 1))]
        if kernel:
            weights = data.draw(st.lists(st.integers(-3, 3), min_size=len(kernel),
                                         max_size=len(kernel)))
            candidates.append([sum(w * v[r] for w, v in zip(weights, kernel))
                               for r in range(n + 1)])
        p, _ = next(split_primes(1, [x for row in rows for x in row]))
        for b in candidates:
            exact = not any(sum(w * x for w, x in zip(row, b)) for row in span)
            assert exact == oracles.in_span(par, support, b)
            residues = [x.numerator * pow(x.denominator, -1, p) % p for x in b]
            modular = not any(sum(w * x for w, x in zip(row, residues)) % p for row in span)
            assert modular == oracles.in_span(par, support, residues, p)

    @settings(max_examples=150, deadline=None)
    @given(free_power_cases())
    def test_free_powers_match_the_oracle(self, case):
        """Free powers take no split prime and give the reference's verdicts."""
        def refuse(*args):
            raise AssertionError("took a split prime")

        with mock.patch.object(modp, "split_primes", refuse):
            got = verdict(is_linear_automorphism, case)
        assert got == verdict(oracles.is_linear_automorphism, case)

    @settings(max_examples=150, deadline=None)
    @given(rational_monomial_cases())
    def test_rational_certificates_match_the_oracle(self, case):
        """Rational entries of two or more absolute values take the split
        prime's certificate and give the reference's verdicts."""
        with mock.patch.object(modp, "root_powers", wraps=modp.root_powers) as spy:
            got = verdict(is_linear_automorphism, case)
        assert spy.call_count == (not isinstance(got, str))
        assert got == verdict(oracles.is_linear_automorphism, case)

    def test_free_powers_keep_signs_and_mixed_orders(self):
        """On a generic table diag(c, -c, c, c), c = 3/2 zeta_4, is accepted
        at even k only.  zeta_6 c, of order 12, and -c, of order 4, have
        equal cubes, read as zeta_12^3 and -zeta_12^9, so the rows of W b
        are 0 only modulo Phi_12."""
        par = StandardParameter(1, 3, ((Fraction(5, 7),),))
        c = CyclotomicScalar.zeta(4) * Fraction(3, 2)
        for k in (2, 3, 4, 5):
            case = (monomial(range(4), [c, -c, c, c]), par, k)
            assert is_linear_automorphism(*case) is (k % 2 == 0)
            assert oracles.is_linear_automorphism(*case) is (k % 2 == 0)
        z6 = CyclotomicScalar.zeta(6).promote(12) * c.promote(12)
        minus = -c
        for k, accepted in ((3, True), (9, True), (2, False)):
            case = (monomial(range(4), [z6, minus, minus, z6]), par, k)
            assert is_linear_automorphism(*case) is accepted
            assert oracles.is_linear_automorphism(*case) is accepted

    @staticmethod
    def klein_four_lifts():
        """(matrix, parameter, k, accepted): for each involution s of the
        Klein four-group at (n, d) = (3, 1), the span of the forms fixes
        b = (1, l, 1, l), (1, -1, 1 - l, l - 1) or (1, -l, 1 - l, l(l - 1)),
        so with l chosen to make each |b_r| a square (or a fourth power),
        a_r = b_r^(1/k) is a rational or i times one; scaled by 3/2 too,
        and rejected with one entry tripled."""
        i = CyclotomicScalar.zeta(4)
        cases = []
        for s in (Fraction(2), Fraction(3), Fraction(1, 2), Fraction(-2, 3), Fraction(5, 7)):
            cases.append(((1, 0, 3, 2), s * s, [1, s, 1, s], 2))
            cases.append(((1, 0, 3, 2), s ** 4, [1, s, 1, s], 4))
            cases.append(((2, 3, 0, 1), 1 - s * s, [1, i, s, i * s], 2))
        for lam, root, other in ((Fraction(9, 25), Fraction(3, 5), Fraction(4, 5)),
                                 (Fraction(-9, 16), Fraction(3, 4) * i, Fraction(5, 4))):
            cases.append(((3, 2, 1, 0), lam, [1, i * root, other, i * root * other], 2))
        out = []
        for support, lam, diagonal, k in cases:
            par = StandardParameter(1, 3, ((lam,),))
            for scale in (Fraction(1), Fraction(3, 2)):
                good = [x * scale for x in diagonal]
                bad = good[:2] + [good[2] * 3] + good[3:]
                out.append((monomial(support, good), par, k, True))
                out.append((monomial(support, bad), par, k, False))
        return out

    def test_klein_four_lifts_take_the_exact_powers(self, monkeypatch):
        """Every lift passes the certificate and is accepted on its exact
        powers; with one entry tripled the certificate rejects it."""
        from gfermat import fermatgroup

        calls = []
        span_holds = fermatgroup._span_holds

        def counting(span, powers, order):
            calls.append(order)
            return span_holds(span, powers, order)

        monkeypatch.setattr(fermatgroup, "_span_holds", counting)
        lifts = self.klein_four_lifts()
        for matrix, par, k, accepted in lifts:
            assert is_linear_automorphism(matrix, par, k) is accepted
            assert oracles.is_linear_automorphism(matrix, par, k) is accepted
        assert len(calls) == sum(accepted for *_, accepted in lifts) == 34

    def test_the_certificate_prime_skips_table_denominators(self, monkeypatch):
        """A table entry 1/p, p the first split prime for L = 1, moves the
        certificate of diag(2, 1, 1, 1) to the next split prime: its root
        table and every residue are taken modulo that prime."""
        primes = split_primes(1)
        p, _ = next(primes)
        q, _ = next(primes)
        assert p == 1099511627791
        par = StandardParameter(1, 3, ((Fraction(1, p),),))
        seen = []
        root_powers, residue = modp.root_powers, modp.residue

        def recording_powers(g, prime, order):
            seen.append(prime)
            return root_powers(g, prime, order)

        def recording_residue(x, prime, table):
            seen.append(prime)
            return residue(x, prime, table)

        monkeypatch.setattr(modp, "root_powers", recording_powers)
        monkeypatch.setattr(modp, "residue", recording_residue)
        case = (monomial(range(4), [Fraction(2), 1, 1, 1]), par, 2)
        assert is_linear_automorphism(*case) is False
        assert len(seen) == 5 and set(seen) == {q}
        assert oracles.is_linear_automorphism(*case) is False


class TestAutomorphismOrder:
    @pytest.mark.parametrize("d,k", [(1, 2), (1, 3), (2, 2), (2, 4), (3, 2)])
    def test_fermat_hypersurface_order(self, d, k):
        par = StandardParameter(d, d + 1, ())
        result = automorphism_order(par, k)
        assert result.order == math.factorial(d + 2) * k ** (d + 1)
        assert result.deck_order == k ** (d + 1)

    def test_generic_surface_order(self):
        rng = random.Random(17)
        par = random_parameter(2, 5, rng)
        result = automorphism_order(par, 3)
        assert result.order == 3**5
        assert result.stabilizer_order == 1

    def test_harmonic_curve_order(self):
        result = automorphism_order(par1(-1), 3)
        assert result.stabilizer_order == 8
        assert result.kernel_order == 4
        assert result.stabilizer_image_order == 2
        assert result.order == 8 * 27

    def test_exceptional_pairs_flagged(self):
        par = StandardParameter(2, 3, ())
        assert automorphism_order(par, 4).category == "Lin"
        assert automorphism_order(par, 3).category == "Aut"

    def test_low_genus_curves_flagged(self):
        # genus <= 1 curves have infinite automorphism groups
        assert automorphism_order(par1(2), 2).category == "Lin"    # genus 1
        assert automorphism_order(par1(2), 3).category == "Aut"    # genus 10
        assert automorphism_order(StandardParameter(1, 2, ()), 3).category == "Lin"


class TestClassifyLowN:
    def test_projective_space_cases(self):
        record = classify_low_n(3, 3)
        assert record.case == "projective-space"
        assert classify_low_n(2, 2).case == "projective-space"

    def test_nonexistent_case(self):
        assert classify_low_n(5, 2).case == "nonexistent"

    def test_rejects_wrong_entry_point(self):
        with pytest.raises(ValueError):
            classify_low_n(2, 3)
        with pytest.raises(ValueError):
            classify_low_n(4, 1)
