"""Tests for the symmetric-group action, orbits, stabilizers and the kernel."""

import copy
import itertools
import math
import pickle
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gfermat.arrangement import StandardParameter, is_standard_parameter
from gfermat.errors import DEFAULT_BUDGET, BudgetExceeded
from gfermat.fermatgroup import automorphism_order
from gfermat.modaction import (
    KLEIN_ONE_LINE,
    IsomorphismResult,
    Permutation,
    _ORDERINGS,
    _check_scan,
    _classes,
    _key_shift,
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
from tests.oracles import random_parameter


def par1(*values):
    return StandardParameter(1, len(values) + 2, tuple((Fraction(v),) for v in values))


HARMONIC = par1(2)  # d=1, n=3, parameter 2


class TestPermutation:
    def test_composition_is_left_to_right(self):
        a = Permutation.transposition(4, 0, 1)
        b = Permutation.full_cycle(4)
        ab = a * b
        for x in range(4):
            assert ab.images[x] == b.images[a.images[x]]

    def test_inverse(self):
        p = Permutation.from_one_line((3, 1, 4, 2))
        assert (p * oracles.permutation_inverse(p)).is_identity()
        assert (oracles.permutation_inverse(p) * p).is_identity()

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
        assert act(Permutation(tuple(range(6))), par) == par

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
        """The degree is checked first, also on a parameter off X_{n,d}."""
        for par in (HARMONIC, par1(1)):
            with pytest.raises(ValueError) as refused:
                act(Permutation(tuple(range(5))), par)
            assert (type(refused.value), str(refused.value)) == (
                ValueError, "permutation degree must be n+1")

    def test_validating_act_refuses_a_parameter_off_x(self):
        """par1(1) repeats the point (1, 1)."""
        with pytest.raises(ValueError) as refused:
            act(Permutation(tuple(range(4))), par1(1))
        assert (type(refused.value), str(refused.value)) == (
            ValueError, "parameter is not in X_{n,d}")


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

    @pytest.mark.parametrize("n,d", [(n, d) for n in range(4, 10) for d in range(1, n - 1)])
    def test_trivial_kernels(self, n, d):
        for seed in range(20):
            kernel = kernel_of_R(n, d, rng=random.Random(seed))
            assert len(kernel) == 1
            assert kernel[0].is_identity()

    @pytest.mark.parametrize("n,d", [(n, d) for d in (1, 2, 3) for n in range(d + 2, 7)])
    def test_aut_order_kernel_is_the_kernel(self, n, d):
        """The closed-form kernel order of ``automorphism_order`` is the order
        of the kernel that ``kernel_of_R`` proves."""
        rng = random.Random(71 + 10 * n + d)
        for k in (2, 3, 5):
            par = random_parameter(d, n, rng)
            assert automorphism_order(par, k).kernel_order == len(kernel_of_R(n, d, rng=rng))

    @pytest.mark.parametrize("n,d", [(4, 1), (4, 2), (5, 2), (6, 3)])
    def test_each_sample_is_swept_once(self, n, d, monkeypatch):
        """One minor sweep per parameter drawn, refused draws included; a
        draw is 2 d (n-d-1) randint calls."""
        from gfermat import arrangement, modaction, rational

        sweeps, draws = [], []

        def counting(columns):
            sweeps.append(len(columns))
            return rational.minors(columns)

        for module in (arrangement, modaction):
            monkeypatch.setattr(module, "minors", counting)
        rng = random.Random(n * 10 + d)
        randint = rng.randint
        monkeypatch.setattr(rng, "randint", lambda a, b: draws.append(a) or randint(a, b))
        kernel_of_R(n, d, rng=rng)
        assert sweeps == [n + 1] * (len(draws) // (2 * d * (n - d - 1)))

    def test_identity_needs_a_parameter_the_3_cycle_moves(self, monkeypatch):
        """With every draw fixed, nothing proves the kernel trivial: draws
        go on until the budget refuses, and each is tested against (1 2 3)."""
        from gfermat import modaction

        etas = []
        monkeypatch.setattr(modaction, "act", lambda eta, par, validate=True: etas.append(eta) or par)
        with pytest.raises(BudgetExceeded):
            kernel_of_R(4, 1, rng=random.Random(3), budget=40 * math.comb(5, 2))
        assert etas and {eta.one_line() for eta in etas} == {(2, 3, 1, 4, 5)}

    @pytest.mark.parametrize("n,d", [(4, 0), (2, 0), (3, 2), (2, 1), (5, 4), (0, 1), (4, -1)])
    def test_refuses_d_zero_and_small_n(self, n, d):
        with pytest.raises(ValueError, match="needs d >= 1 and n >= d"):
            kernel_of_R(n, d)

    @pytest.mark.parametrize("n,d", [(4, 1), (4, 2), (5, 2), (6, 3), (9, 4)])
    def test_each_draw_is_charged_one_sweep(self, n, d, monkeypatch):
        """Each draw is charged C(n+1, d+1) before it is drawn: a budget of
        one sweep fewer than the draws need is refused, one exactly that
        large is not, and a budget below one sweep draws nothing."""
        sweep, per_draw = math.comb(n + 1, d + 1), 2 * d * (n - d - 1)
        for seed in range(6):
            rng = random.Random(seed)
            randint, calls = rng.randint, []
            monkeypatch.setattr(rng, "randint", lambda a, b: calls.append(a) or randint(a, b))
            kernel_of_R(n, d, rng=rng)
            draws = len(calls) // per_draw
            assert kernel_of_R(n, d, rng=random.Random(seed), budget=draws * sweep)[0].is_identity()
            with pytest.raises(BudgetExceeded) as exc:
                kernel_of_R(n, d, rng=random.Random(seed), budget=draws * sweep - 1)
            assert (exc.value.needed, exc.value.budget) == (draws * sweep, draws * sweep - 1)
        calls.clear()
        with pytest.raises(BudgetExceeded):
            kernel_of_R(n, d, rng=rng, budget=sweep - 1)
        assert calls == []


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

    @pytest.mark.parametrize("first,second,budget", [
        (par1(2), par1(1), DEFAULT_BUDGET),
        (par1(1), par1(2), DEFAULT_BUDGET),
        (par1(1), par1(2), 23),
    ], ids=("second", "first", "first-past-budget"))
    def test_parameter_off_x_refused(self, first, second, budget):
        with pytest.raises(ValueError) as refused:
            are_isomorphic(first, second, budget=budget)
        assert (type(refused.value), str(refused.value)) == (
            ValueError, "parameter is not in X_{n,d}")


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
           st.integers(0, 2**16))
    @example((1, 4), 5)
    @example((2, 4), 6)
    @example((2, 5), 7)
    @example((3, 6), 8)
    def test_kernel_matches_filtering(self, dn, seed):
        """The proved kernel equals the sampled stabilizer intersection
        wherever that search concludes (one survivor)."""
        d, n = dn
        assume((n, d) != (3, 1))
        survivors = oracles.kernel_of_R(n, d, 12, random.Random(seed))
        assume(len(survivors) == 1)
        assert [p.images for p in kernel_of_R(n, d, rng=random.Random(seed))] == survivors

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


def _decoded_frames(par):
    """``oracles.keyed_frame_tables`` with each key row decoded through its
    recorded (num, den); each key is checked to be floor(num 2^shift / den)."""
    minor_table, pairs = _check_scan(par, DEFAULT_BUDGET), {}
    shift = _key_shift(minor_table)
    frames = {}
    for frame, rows in oracles.keyed_frame_tables(par, minor_table, shift, pairs):
        frames[frame] = {q: tuple(Fraction(*pairs[x]) for x in row) for q, row in rows.items()}
        assert all(x == math.floor(Fraction(*pairs[x]) * 2**shift)
                   for row in rows.values() for x in row)
    return frames


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
            got = _decoded_frames(par)
            assert len(got) == math.perm(n + 1, d + 2)
            assert got == dict(oracles.frame_tables(par))

    def test_negative_entries_and_empty_table(self):
        for par in (par1(-3, Fraction(-1, 2)), par1(-1), StandardParameter(2, 5, (
                (Fraction(-2), Fraction(3, 7)), (Fraction(5), Fraction(-4, 3))))):
            assert _decoded_frames(par) == dict(oracles.frame_tables(par))
        for d in (1, 2, 3):
            par = StandardParameter(d, d + 1, ())
            frames = _decoded_frames(par)
            assert frames == dict(oracles.frame_tables(par))
            assert len(frames) == math.factorial(d + 2)
            assert all(rows == {} for rows in frames.values())

    def test_scans_invert_no_matrix(self, monkeypatch):
        """Orbit, stabilizer, iso, canon and aut-order run on the minor table
        alone: every binding of the frame elimination raises."""
        rng = random.Random(61)
        cases = [random_parameter(1, 4, rng), random_parameter(2, 5, rng), HARMONIC]

        def run_scans():
            out = []
            for par in cases:
                other = random_parameter(par.d, par.n, rng)
                out += [orbit_and_stabilizer(par), stabilizer(par), canonical_representative(par),
                        are_isomorphic(par, other), are_isomorphic(par, canonical_representative(par)),
                        automorphism_order(par, 3)]
            return out

        rng.seed(67)
        expected = run_scans()

        def refuse(frame, columns):
            raise AssertionError("a scan eliminated a frame")

        for name, module in list(sys.modules.items()):
            if name.startswith("gfermat") and hasattr(module, "fraction_free_solve"):
                monkeypatch.setattr(module, "fraction_free_solve", refuse)
        rng.seed(67)
        assert run_scans() == expected


@st.composite
def _entry_pairs(draw):
    """(M, x, y): a largest |minor| M of bit length m and two rationals with
    denominators below 2^(2m), as every scan entry has (num and den are
    products of two minors).  Half the time y is x's right Farey neighbour
    at that bound, 1/(b e) above x."""
    m = draw(st.integers(1, 64))
    largest = draw(st.integers(2 ** (m - 1), 2**m - 1))
    bound = 2 ** (2 * m) - 1
    x = Fraction(draw(st.integers(-bound, bound)), draw(st.integers(1, bound)))
    if draw(st.booleans()):
        a, b = x.numerator, x.denominator
        e = -pow(a, -1, b) % b
        e += (bound - e) // b * b
        return largest, x, Fraction((1 + a * e) // b, e)
    return largest, x, Fraction(draw(st.integers(-bound, bound)), draw(st.integers(1, bound)))


class TestEntryKeys:
    """The integer key floor(x 2^K) of a scan entry, and the target term of
    its shift."""

    @settings(max_examples=300, deadline=None)
    @given(_entry_pairs())
    @example((2**20 - 1, Fraction(1, 2**40 - 1), Fraction(1, 2**40 - 2)))
    @example((2**63, Fraction(-1, 2**128 - 2), Fraction(-1, 2**128 - 1)))
    @example((1, Fraction(1, 3), Fraction(1, 2)))
    def test_key_orders_and_equates_like_fraction(self, case):
        largest, x, y = case
        shift = _key_shift({(0,): largest})

        def key(v):
            return (v.numerator << shift) // v.denominator

        assert (key(x) > key(y)) - (key(x) < key(y)) == (x > y) - (x < y)

    @pytest.mark.parametrize("dn", [(1, 4), (2, 5), (3, 6)], ids=lambda dn: f"d{dn[0]}n{dn[1]}")
    def test_iso_refuses_one_entry_off_by_less_than_the_bare_key_step(self, dn):
        """The target is an orbit element with one entry x moved up by
        2^-K0 / (6 b), b its denominator, K0 the shift without the target
        term: floor(x 2^K0) keeps its value, so only the target term
        separates the two entries."""
        d, n = dn
        rng = random.Random(71 + d)
        par = random_parameter(d, n, rng)
        moved = act(Permutation(tuple(rng.sample(range(n + 1), n + 1))), par)
        bare = _key_shift(_check_scan(par, DEFAULT_BUDGET))
        i, j = rng.randrange(n - d - 1), rng.randrange(d)
        x = moved.rows[i][j]
        y = x + Fraction(1, 6 * 2**bare * x.denominator)
        assert math.floor(y * 2**bare) == math.floor(x * 2**bare)
        rows = [list(row) for row in moved.rows]
        rows[i][j] = y
        target = StandardParameter(d, n, tuple(map(tuple, rows)))
        assert is_standard_parameter(target)
        assert are_isomorphic(par, moved).equivalent
        assert are_isomorphic(par, target) == IsomorphismResult(False, None, None)
        assert are_isomorphic(target, par) == IsomorphismResult(False, None, None)


SMALL_FRACTIONS = [Fraction(v) for v in (-2, -1, 2, 3)] + [
    Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(3, 2)]
SMALL_VALUES = st.sampled_from(SMALL_FRACTIONS)


def _small_value_tables(d, n):
    rows = st.tuples(*[st.tuples(*[SMALL_VALUES] * d)] * (n - d - 1))
    return rows.map(lambda r: StandardParameter(d, n, r))


class TestEarlyExitAgainstEnumeration:
    """Stabilizer, iso (true and false targets) and canon against one
    renormalization per permutation, on tables of a few small values: these
    have nontrivial stabilizers and rows sharing their entries, so many
    frames pass the first-row test and fail on a later row."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 3).flatmap(
        lambda d: st.tuples(st.just(d), st.integers(d + 2, min(d + 3, 6)))), st.data())
    def test_small_value_tables(self, dn, data):
        d, n = dn
        par = data.draw(_small_value_tables(d, n))
        assume(is_standard_parameter(par))
        moved = act(Permutation(tuple(data.draw(st.permutations(range(n + 1))))), par)
        other = data.draw(_small_value_tables(d, n))
        targets = [moved.rows] + [other.rows] * is_standard_parameter(other)
        tables, stab, witnesses = oracles.scans(par, targets)
        assert _images(stabilizer(par)) == stab
        assert canonical_representative(par).rows == tables[0]
        for target in targets:
            result = are_isomorphic(par, StandardParameter(d, n, target))
            assert (result.witness and result.witness.images) == witnesses[target]
            assert result.equivalent == (target in tables)


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
        """Setter-built output (the orbit's bulk constructor, canon and act)
        is a plain ``StandardParameter`` with tuple rows of ``Fraction``s,
        equal and hash-equal to the checked constructor's value, and it
        survives ``pickle`` and ``copy``."""
        report = orbit_and_stabilizer(par)
        eta = Permutation(tuple(reversed(range(par.n + 1))))
        for element in (*report.elements, canonical_representative(par), act(eta, par)):
            assert type(element) is StandardParameter
            checked = StandardParameter(element.d, element.n, element.rows)
            assert element == checked and hash(element) == hash(checked)
            assert type(element.rows) is tuple
            assert all(type(row) is tuple for row in element.rows)
            assert all(type(x) is Fraction for row in element.rows for x in row)
            for twin in (pickle.loads(pickle.dumps(element)), copy.copy(element),
                         copy.deepcopy(element)):
                assert type(twin) is StandardParameter
                assert twin == element and hash(twin) == hash(element)
        assert len(set(report.elements)) == report.orbit_size




def _small_value_parameter(d, n, rng):
    """A member of X_{n,d} with entries from ``SMALL_FRACTIONS``, or None
    after 500 draws."""
    for _ in range(500):
        par = StandardParameter(d, n, tuple(tuple(rng.choice(SMALL_FRACTIONS) for _ in range(d))
                                            for _ in range(n - d - 1)))
        if is_standard_parameter(par):
            return par
    return None


def _orbit_from_frame_tables(par):
    """(sorted orbit tables, sorted stabilizer images) assembled from
    ``oracles.frame_tables``: every frame's rows in every row order, and the
    frames whose rows are par's own, each row sent to its slot in par."""
    tables, stab = set(), []
    slots = {row: j for j, row in enumerate(par.rows, start=par.d + 2)}
    for frame, rows in oracles.frame_tables(par):
        tables.update(itertools.permutations(rows.values()))
        if set(rows.values()) == slots.keys():
            images = [0] * (par.n + 1)
            for j, h in enumerate(frame):
                images[h] = j
            for h, row in rows.items():
                images[h] = slots[row]
            stab.append(tuple(images))
    return sorted(tables), tuple(sorted(stab))


# A ``SMALL_FRACTIONS`` table with a nontrivial stabilizer (of order 2 to
# 12) at each (d, n) with d 1..4 and n <= 6, and the empty d = 4 table.
FRAME_TIED = [(1, 4, [["2/3"], ["1/3"]]), (1, 5, [["1/2"], ["2/3"], ["1/3"]]),
              (1, 6, [["1/2"], ["-2"], ["2"], ["2/3"]]), (2, 4, [["2", "-2"]]),
              (2, 5, [["1/3", "2/3"], ["2/3", "1/3"]]),
              (2, 6, [["1/3", "2/3"], ["3", "-1"], ["-1", "2"]]), (3, 5, [["-1", "2", "1/2"]]),
              (3, 6, [["-1", "2", "1/2"], ["-2", "-1", "3/2"]]), (4, 5, []),
              (4, 6, [["1/3", "2/3", "3", "3/2"]])]


class TestOrbitAgainstFrameTables:
    """The orbit of zipped key columns against the orbit assembled from the
    Fraction frame tables, for d 1..4 and n <= 6 (the enumeration property
    test stops at d <= 3): a random table and small-value tables, whose
    stabilizers and shared row entries tie many frames."""

    @pytest.mark.parametrize("dn", [(d, n) for d in (1, 2, 3, 4) for n in range(d + 1, 7)],
                             ids=lambda dn: f"d{dn[0]}n{dn[1]}")
    def test_matches_frame_tables(self, dn):
        d, n = dn
        rng = random.Random(97 + 10 * d + n)
        pars = [random_parameter(d, n, rng), random_parameter(d, n, rng, 10**6)]
        pars += filter(None, (_small_value_parameter(d, n, rng) for _ in range(3)))
        for par in pars:
            tables, stab = _orbit_from_frame_tables(par)
            report = orbit_and_stabilizer(par)
            assert [e.rows for e in report.elements] == tables
            assert _images(report.stabilizer) == stab
            assert len(tables) * len(stab) == math.factorial(n + 1)

    @pytest.mark.parametrize("d, n, rows", FRAME_TIED, ids=lambda v: str(v).replace(" ", ""))
    def test_tied_tables(self, d, n, rows):
        par = StandardParameter(d, n, tuple(tuple(map(Fraction, row)) for row in rows))
        tables, stab = _orbit_from_frame_tables(par)
        report = orbit_and_stabilizer(par)
        assert len(stab) > 1
        assert [e.rows for e in report.elements] == tables
        assert _images(report.stabilizer) == stab


def _off_every_class(par, moved, rng):
    """moved with its first entry replaced by a value in no class of par,
    still a member of X_{n,d}."""
    minor_table = _check_scan(par, DEFAULT_BUDGET)
    while True:
        rows = [list(row) for row in moved.rows]
        x = rows[0][0] = Fraction(rng.randint(10**6, 10**7), rng.randint(1, 10**3))
        target = StandardParameter(par.d, par.n, tuple(map(tuple, rows)))
        shift = _key_shift(minor_table, target.rows)
        keys = {key for *_, keys in _classes(par, minor_table, shift) for key in keys}
        if is_standard_parameter(target) and (x.numerator << shift) // x.denominator not in keys:
            return target


# (d, n) with d 1..4 and n <= 8: the frame-step oracle at n = 8 takes about
# C(9, d+1)(8-d)(d+1) steps per call.
CLASS_CASES = [(1, 4), (1, 6), (1, 8), (2, 5), (2, 7), (2, 8), (3, 6), (3, 8), (4, 7), (4, 8)]


class TestClassScans:
    """The cross-ratio classes: their values against the Fraction frame
    tables, and stabilizer, iso, aut-order and canon against the frame-step
    scans they replaced."""

    @pytest.mark.parametrize("dn", [(1, 3), (1, 5), (2, 4), (2, 5), (3, 5), (3, 6)],
                             ids=lambda dn: f"d{dn[0]}n{dn[1]}")
    def test_orderings_give_the_six_values(self, dn):
        """Every (R, W) has all 24 orderings of W among the frame entries;
        the orderings of each ``_ORDERINGS`` group give lambda, 1-lambda,
        1/lambda, (lambda-1)/lambda, 1/(1-lambda) and lambda/(lambda-1) in
        turn, and ``_classes`` keys exactly those values."""
        d, n = dn
        rng = random.Random(83 + 10 * d + n)
        for par in (random_parameter(d, n, rng), random_parameter(d, n, rng, 10**6)):
            values = oracles.class_values(par)
            minor_table = _check_scan(par, DEFAULT_BUDGET)
            shift = _key_shift(minor_table)
            classes = list(_classes(par, minor_table, shift))
            assert len(classes) == len(values) == math.comb(n + 1, d - 1) * math.comb(n + 2 - d, 4)
            for rest, w, keys in classes:
                by_ordering = values[rest, w]
                assert len(by_ordering) == 24
                lam = by_ordering[w]
                six = [lam, 1 - lam, 1 / lam, (lam - 1) / lam, 1 / (1 - lam), lam / (lam - 1)]
                for value, key, group in zip(six, keys, _ORDERINGS):
                    assert key == math.floor(value * 2**shift)
                    assert {by_ordering[tuple(w[i] for i in p)] for p in group} == {value}

    @pytest.mark.parametrize("dn", CLASS_CASES, ids=lambda dn: f"d{dn[0]}n{dn[1]}")
    def test_scans_match_frame_steps(self, dn):
        """Three random and three small-value (tied) tables, each against
        three iso targets: a moved table, an unrelated one, and one whose
        first entry lies in no class (never isomorphic)."""
        d, n = dn
        rng = random.Random(89 + 10 * d + n)
        pars = [random_parameter(d, n, rng) for _ in range(3)]
        pars += filter(None, (_small_value_parameter(d, n, rng) for _ in range(3)))
        for par in pars:
            stab = oracles.carriers_by_frames(par, par)
            assert _images(stabilizer(par)) == tuple(stab)
            assert automorphism_order(par, 3).stabilizer_order == len(stab)
            assert canonical_representative(par).rows == oracles.canon_by_frames(par)
            moved = act(Permutation(tuple(rng.sample(range(n + 1), n + 1))), par)
            verdicts = []
            for target in (moved, random_parameter(d, n, rng), _off_every_class(par, moved, rng)):
                expected = min(oracles.carriers_by_frames(par, target), default=None)
                result = are_isomorphic(par, target)
                assert (result.witness and result.witness.images) == expected
                assert result.equivalent == (expected is not None)
                verdicts.append(result.equivalent)
            assert verdicts[0] and not verdicts[2]
