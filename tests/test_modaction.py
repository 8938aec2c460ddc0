"""Tests for the symmetric-group action, orbits, stabilizers and the kernel."""

import itertools
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gfermat.arrangement import StandardParameter, is_standard_parameter, random_parameter
from gfermat.errors import DEFAULT_BUDGET, BudgetExceeded, Inconclusive
from gfermat.fermatgroup import automorphism_order
from gfermat.modaction import (
    KLEIN_ONE_LINE,
    Permutation,
    _check_scan,
    _frame_tables,
    act,
    act_sigma1,
    act_sigma2,
    are_isomorphic,
    canonical_representative,
    kernel_of_R,
    orbit_and_stabilizer,
    stabilizer,
)
from tests import oracles
from tests.conftest import nonzero_rationals, rationals, tables


def par1(*values):
    return StandardParameter(1, len(values) + 2, tuple((Fraction(v),) for v in values))


HARMONIC = par1(2)  # d=1, n=3, parameter 2


class TestPermutation:
    def test_composition_is_left_to_right(self):
        a = Permutation.transposition(4, 0, 1)
        b = Permutation.full_cycle(4)
        ab = a * b
        for x in range(4):
            assert ab(x) == b(a(x))

    def test_inverse(self):
        p = Permutation.from_one_line((3, 1, 4, 2))
        assert (p * p.inverse()).is_identity()
        assert (p.inverse() * p).is_identity()

    def test_one_line_round_trip(self):
        p = Permutation.from_one_line((2, 3, 1))
        assert p.one_line() == (2, 3, 1)

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            Permutation((0, 0, 1))


class TestGeneratorConsistency:
    def test_sigma1_example_swaps_columns(self):
        par = StandardParameter(2, 5, ((Fraction(2), Fraction(5)), (Fraction(3), Fraction(7))))
        swapped = act_sigma1(par)
        assert swapped.columns == ((Fraction(5), Fraction(7)), (Fraction(2), Fraction(3)))
        assert act_sigma1(swapped) == par

    def test_sigma2_frozen_example(self):
        # hand-substitution into the closed formulas for d=1, n=4
        assert act_sigma2(par1(2, 3)) == par1(Fraction(3, 2), 3)

    @pytest.mark.parametrize("d,n", [(1, 3), (1, 5), (2, 4), (2, 6), (3, 5)])
    def test_sigma_generators_match_renormalization(self, d, n):
        rng = random.Random(d * 100 + n)
        for _ in range(20):
            par = random_parameter(d, n, rng)
            assert act_sigma1(par) == act(Permutation.transposition(n + 1, 0, 1), par)
            assert act_sigma2(par) == act(Permutation.full_cycle(n + 1), par)

    def test_sigma2_order(self):
        rng = random.Random(11)
        for d, n in [(1, 4), (2, 4), (2, 5)]:
            par = random_parameter(d, n, rng)
            current = par
            for _ in range(n + 1):
                current = act_sigma2(current)
            assert current == par
        # (n, d) = (3, 1): the square of the cycle lies in the kernel
        par = random_parameter(1, 3, rng)
        assert act_sigma2(act_sigma2(par)) == par


class TestActionLaws:
    def test_identity_acts_trivially(self, rng):
        par = random_parameter(2, 5, rng)
        assert act(Permutation.identity(6), par) == par

    def test_homomorphism_law(self):
        rng = random.Random(23)
        for _ in range(100):
            d, n = rng.choice([(1, 3), (1, 4), (2, 4), (2, 5), (3, 5)])
            par = random_parameter(d, n, rng)
            a = Permutation(tuple(rng.sample(range(n + 1), n + 1)))
            b = Permutation(tuple(rng.sample(range(n + 1), n + 1)))
            assert act(a * b, par) == act(b, act(a, par))

    def test_closure_in_parameter_space(self):
        rng = random.Random(31)
        for _ in range(50):
            d, n = rng.choice([(1, 4), (2, 5)])
            par = random_parameter(d, n, rng)
            eta = Permutation(tuple(rng.sample(range(n + 1), n + 1)))
            assert is_standard_parameter(act(eta, par))

    def test_degree_mismatch_rejected(self):
        with pytest.raises(ValueError):
            act(Permutation.identity(5), HARMONIC)


def _actions(entries):
    """(eta, parameter table) with d in 1..3 and n in d+1..d+7."""
    def case(d, n):
        rows = st.lists(st.tuples(*[entries] * d), min_size=n - d - 1, max_size=n - d - 1)
        return st.tuples(
            st.permutations(range(n + 1)).map(lambda p: Permutation(tuple(p))),
            rows.map(lambda r: StandardParameter(d, n, tuple(r))),
        )

    return st.integers(1, 3).flatmap(
        lambda d: st.integers(d + 1, d + 7).flatmap(lambda n: case(d, n))
    )


def _act_outcome(fn, eta, par):
    try:
        return fn(eta, par)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc)


class TestActAgainstFractionReference:
    """act on integer dual points against reorder -> Fraction normalize."""

    @settings(max_examples=100, deadline=None)
    @given(_actions(nonzero_rationals))
    def test_members(self, case):
        eta, par = case
        if is_standard_parameter(par):
            assert act(eta, par) == oracles.act(eta, par)

    @settings(max_examples=100, deadline=None)
    @given(_actions(rationals))
    def test_unvalidated_agrees_including_errors(self, case):
        eta, par = case
        ours = _act_outcome(lambda e, p: act(e, p, validate=False), eta, par)
        assert ours == _act_outcome(oracles.act, eta, par)

    def test_unvalidated_anchor_on_frame_hyperplane(self):
        """For the parameter 0 hyperplanes 2 and 4 coincide; sending them to
        the first frame slot and the anchor slot leaves the anchor with a
        zero last coordinate, which the Fraction path rejects too."""
        eta = Permutation((1, 0, 3, 2))
        with pytest.raises(ZeroDivisionError):
            oracles.act(eta, par1(0))
        with pytest.raises(ZeroDivisionError):
            act(eta, par1(0), validate=False)


class TestOrbitStabilizer:
    def test_harmonic_orbit(self):
        report = orbit_and_stabilizer(HARMONIC)
        values = {p.rows[0][0] for p in report.elements}
        assert values == {Fraction(2), Fraction(1, 2), Fraction(-1)}
        assert report.stabilizer_order == 8
        assert report.orbit_size * report.stabilizer_order == math.factorial(4)
        assert report.kernel_note is not None

    def test_single_point_space_has_full_stabilizer(self):
        par = StandardParameter(2, 3, ())
        report = orbit_and_stabilizer(par)
        assert report.orbit_size == 1
        assert report.stabilizer_order == math.factorial(4)

    def test_generic_surface_parameter_trivial_stabilizer(self):
        rng = random.Random(17)
        par = random_parameter(2, 5, rng)
        report = orbit_and_stabilizer(par)
        assert report.stabilizer_order == 1
        assert report.orbit_size == math.factorial(6)

    def test_orbit_stabilizer_identity_random(self):
        rng = random.Random(13)
        for d, n in [(1, 4), (2, 4), (1, 5)]:
            par = random_parameter(d, n, rng)
            report = orbit_and_stabilizer(par)
            assert report.orbit_size * report.stabilizer_order == math.factorial(n + 1)

    def test_budget_exceeded(self):
        with pytest.raises(BudgetExceeded):
            orbit_and_stabilizer(HARMONIC, budget=10)


class TestKernel:
    def test_klein_kernel_for_n3_d1(self):
        kernel = kernel_of_R(3, 1)
        assert {p.one_line() for p in kernel} == {
            (1, 2, 3, 4), (2, 1, 4, 3), (3, 4, 1, 2), (4, 3, 2, 1)
        }

    def test_klein_kernel_agrees_with_sampling(self):
        """The proved Klein kernel equals the intersected stabilizers."""
        rng = random.Random(41)
        candidates = None
        for _ in range(8):
            par = random_parameter(1, 3, rng)
            stab = {
                eta.one_line()
                for eta in orbit_and_stabilizer(par).stabilizer
            }
            candidates = stab if candidates is None else candidates & stab
        assert candidates == {p.one_line() for p in kernel_of_R(3, 1)}

    @pytest.mark.parametrize("n,d", [(4, 1), (5, 2), (4, 2)])
    def test_trivial_kernels(self, n, d):
        kernel = kernel_of_R(n, d, samples=10, rng=random.Random(5))
        assert len(kernel) == 1
        assert kernel[0].is_identity()

    @pytest.mark.parametrize("n,d", [(4, 1), (5, 2)])
    def test_unsampled_kernel_is_inconclusive(self, n, d):
        with pytest.raises(Inconclusive):
            kernel_of_R(n, d, samples=0)


class TestIsomorphism:
    def test_orbit_membership(self):
        assert are_isomorphic(par1(2), par1(Fraction(1, 2))).equivalent
        assert not are_isomorphic(par1(2), par1(5)).equivalent

    def test_witness_maps_first_to_second(self):
        rng = random.Random(3)
        par = random_parameter(2, 4, rng)
        eta = Permutation(tuple(rng.sample(range(5), 5)))
        moved = act(eta, par)
        result = are_isomorphic(par, moved)
        assert result.equivalent
        assert act(result.witness, par) == moved

    def test_exceptional_pair_tagged(self):
        rng = random.Random(3)
        par = random_parameter(2, 5, rng)
        assert are_isomorphic(par, par, k=2).note == "linear-category"
        assert are_isomorphic(par, par, k=3).note is None

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            are_isomorphic(par1(2), StandardParameter(2, 4, ((Fraction(2), Fraction(3)),)))


class TestCanonicalRepresentative:
    def test_harmonic_minimum(self):
        assert canonical_representative(HARMONIC) == par1(-1)

    def test_idempotent_and_orbit_invariant(self):
        rng = random.Random(29)
        for _ in range(10):
            par = random_parameter(1, 4, rng)
            rep = canonical_representative(par)
            assert canonical_representative(rep) == rep
            eta = Permutation(tuple(rng.sample(range(5), 5)))
            assert canonical_representative(act(eta, par)) == rep

    def test_agrees_with_isomorphism(self):
        rng = random.Random(37)
        for _ in range(5):
            a = random_parameter(1, 4, rng)
            b = random_parameter(1, 4, rng)
            same = canonical_representative(a) == canonical_representative(b)
            assert same == are_isomorphic(a, b).equivalent


def _images(perms):
    return tuple(p.images for p in perms)


# The enumeration renormalizes once per permutation: property tests keep it
# to (n+1)! <= 7!, and one fixed case covers d = 3, n = 7 (8! permutations).
ENUMERABLE = math.factorial(7)


def _assert_scans_match(par, eta, other, k):
    """Orbit, stabilizer, canon, aut-order and iso (against act(eta, par) and
    against ``other`` when it is a member) as the enumeration gives them."""
    d, n = par.d, par.n
    targets = [act(eta, par).rows]
    if is_standard_parameter(other):
        targets.append(other.rows)
    tables, stab, witnesses = oracles.scans(par, targets)
    report = orbit_and_stabilizer(par)
    assert [e.rows for e in report.elements] == tables
    assert _images(report.stabilizer) == stab
    assert _images(stabilizer(par)) == stab
    assert canonical_representative(par).rows == tables[0]
    assert automorphism_order(par, k).stabilizer_order == len(stab)
    for target in targets:
        result = are_isomorphic(par, StandardParameter(d, n, target))
        assert result.equivalent == (witnesses[target] is not None)
        assert (result.witness and result.witness.images) == witnesses[target]


class TestFrameScansAgainstEnumeration:
    """The frame scans against one renormalization per permutation of
    S_{n+1} (the enumeration they replaced), for d 1..3 and n up to d+4."""

    @settings(max_examples=20, deadline=None)
    @given(tables(extra=4).filter(lambda t: math.factorial(t[1] + 1) <= ENUMERABLE), st.data())
    def test_scans_match_enumeration(self, table, data):
        """A table off X_{n,d} is refused, then replaced by a random member."""
        d, n, rows = table
        par = StandardParameter(d, n, rows)
        if not is_standard_parameter(par):
            for scan in (orbit_and_stabilizer, stabilizer, canonical_representative):
                with pytest.raises(ValueError, match="not in X"):
                    scan(par)
            par = random_parameter(d, n, data.draw(st.randoms(use_true_random=False)))
        eta = Permutation(tuple(data.draw(st.permutations(range(n + 1)))))
        other = StandardParameter(d, n, data.draw(
            st.tuples(*[st.tuples(*[nonzero_rationals] * d)] * (n - d - 1))))
        _assert_scans_match(par, eta, other, data.draw(st.integers(2, 6)))

    def test_largest_class_matches_enumeration(self):
        rng = random.Random(47)
        par = random_parameter(3, 7, rng)
        eta = Permutation(tuple(rng.sample(range(8), 8)))
        _assert_scans_match(par, eta, random_parameter(3, 7, rng), 3)

    @settings(max_examples=12, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda d: st.tuples(st.just(d), st.integers(d + 2, d + 4)))
           .filter(lambda dn: math.factorial(dn[1] + 1) <= ENUMERABLE),
           st.integers(0, 3), st.integers(0, 2**16))
    @example((1, 4), 0, 0)
    @example((2, 5), 12, 7)
    def test_kernel_matches_filtering(self, dn, samples, seed):
        d, n = dn
        assume((n, d) != (3, 1))

        def outcome(kernel):
            try:
                return [getattr(p, "images", p) for p in kernel(random.Random(seed))]
            except Inconclusive as exc:
                return str(exc)

        assert outcome(lambda rng: kernel_of_R(n, d, samples=samples, rng=rng)) == \
            outcome(lambda rng: oracles.kernel_of_R(n, d, samples, rng))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_empty_table_is_fixed_by_everything(self, d):
        par = StandardParameter(d, d + 1, ())
        everything = tuple(itertools.permutations(range(d + 2)))
        report = orbit_and_stabilizer(par)
        assert report.elements == (par,)
        assert _images(report.stabilizer) == everything
        assert _images(stabilizer(par)) == everything
        assert canonical_representative(par) == par
        assert are_isomorphic(par, par).witness.is_identity()

    def test_harmonic_point_against_enumeration(self):
        tables, stab, witnesses = oracles.scans(HARMONIC, [par1(Fraction(1, 2)).rows])
        report = orbit_and_stabilizer(HARMONIC)
        assert [e.rows for e in report.elements] == tables
        assert _images(report.stabilizer) == stab
        assert are_isomorphic(HARMONIC, par1(Fraction(1, 2))).witness.images == \
            witnesses[par1(Fraction(1, 2)).rows]

    def test_klein_group_fixes_every_d1_n3_parameter(self):
        rng = random.Random(43)
        klein = {Permutation.from_one_line(p).images for p in KLEIN_ONE_LINE}
        for _ in range(5):
            par = random_parameter(1, 3, rng)
            stab = _images(stabilizer(par))
            assert klein <= set(stab)
            assert stab == oracles.scans(par)[1]


class TestMinorTableFrames:
    """Every ordered frame's rows read off the minor table against the
    fraction-free inverse per basis set that the table replaced."""

    @pytest.mark.parametrize("dn", [(d, n) for d in (1, 2, 3) for n in range(d + 1, 7)],
                             ids=lambda dn: f"d{dn[0]}n{dn[1]}")
    def test_frames_match_inverse_oracle(self, dn):
        d, n = dn
        rng = random.Random(59 + 10 * d + n)
        for bound in (9, 9, 10**6):  # entries p/q, |p| <= bound, 1 <= q <= bound
            par = random_parameter(d, n, rng, bound)
            got = dict(_frame_tables(par, _check_scan(par, DEFAULT_BUDGET)))
            assert len(got) == math.perm(n + 1, d + 2)
            assert got == dict(oracles.frame_tables(par))

    def test_negative_entries_and_empty_table(self):
        for par in (par1(-3, Fraction(-1, 2)), par1(-1), StandardParameter(2, 5, (
                (Fraction(-2), Fraction(3, 7)), (Fraction(5), Fraction(-4, 3))))):
            assert dict(_frame_tables(par, _check_scan(par, DEFAULT_BUDGET))) == \
                dict(oracles.frame_tables(par))
        for d in (1, 2, 3):
            par = StandardParameter(d, d + 1, ())
            frames = dict(_frame_tables(par, _check_scan(par, DEFAULT_BUDGET)))
            assert frames == dict(oracles.frame_tables(par))
            assert len(frames) == math.factorial(d + 2)
            assert all(rows == {} for rows in frames.values())

    def test_scans_invert_no_matrix(self, monkeypatch):
        """Orbit, stabilizer, iso, canon, aut-order and the kernel run on the
        minor table alone: every binding of the inverse raises."""
        rng = random.Random(61)
        cases = [random_parameter(1, 4, rng), random_parameter(2, 5, rng), HARMONIC]

        def run_scans():
            out = []
            for par in cases:
                other = random_parameter(par.d, par.n, rng)
                out += [orbit_and_stabilizer(par), stabilizer(par), canonical_representative(par),
                        are_isomorphic(par, other), are_isomorphic(par, canonical_representative(par)),
                        automorphism_order(par, 3)]
            return out + [kernel_of_R(4, 1, rng=random.Random(5)),
                          kernel_of_R(5, 2, rng=random.Random(5))]

        rng.seed(67)
        expected = run_scans()

        def refuse(rows):
            raise AssertionError("a scan inverted a matrix")

        for name, module in list(sys.modules.items()):
            if name.startswith("gfermat") and hasattr(module, "fraction_free_inverse"):
                monkeypatch.setattr(module, "fraction_free_inverse", refuse)
        rng.seed(67)
        assert run_scans() == expected


def par2(*rows):
    return StandardParameter(2, len(rows) + 3, tuple(tuple(map(Fraction, r)) for r in rows))


# Parameters whose frames tie on their least row: the empty tables (every
# frame ties), the harmonic point and two d=2, n=5 tables with stabilizers of
# order 2 and 12.
TIED = [StandardParameter(d, d + 1, ()) for d in (1, 2, 3)] + [
    HARMONIC, par2((2, 3), (3, 2)), par2((-1, 2), (2, -1))]


class TestScanOutput:
    """Canon where many frames tie, and the scan output as checked
    parameters with ``Fraction`` entries."""

    @pytest.mark.parametrize("par", TIED, ids=lambda p: f"d{p.d}n{p.n}{p.rows}")
    def test_tied_frames_against_enumeration(self, par):
        tables, stab, _ = oracles.scans(par)
        assert len(stab) > 1
        report = orbit_and_stabilizer(par)
        assert [e.rows for e in report.elements] == tables
        assert _images(report.stabilizer) == stab
        assert canonical_representative(par).rows == tables[0]

    def test_cross_ratio_ties_at_d1(self):
        """At d = 1 the frames (b0, b1, a) and (b1, b0, q) give hyperplane a
        and q the same row (cross-ratio symmetry), so even a parameter with
        trivial stabilizer has frames tying on their least row."""
        rng = random.Random(53)
        for _ in range(4):
            par = random_parameter(1, 4, rng)
            assert canonical_representative(par).rows == oracles.scans(par)[0][0]

    @pytest.mark.parametrize("par", TIED + [random_parameter(d, n, random.Random(53))
                                            for d, n in ((1, 4), (2, 5), (3, 6))],
                             ids=lambda p: f"d{p.d}n{p.n}{p.rows}")
    def test_output_equals_and_hashes_like_checked_parameter(self, par):
        report = orbit_and_stabilizer(par)
        eta = Permutation(tuple(reversed(range(par.n + 1))))
        for element in (*report.elements, canonical_representative(par), act(eta, par)):
            checked = StandardParameter(element.d, element.n, element.rows)
            assert element == checked and hash(element) == hash(checked)
            assert all(type(x) is Fraction for row in element.rows for x in row)
        assert len(set(report.elements)) == report.orbit_size

