"""Tests for general position, normalization and the parameter space."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gfermat import arrangement as arrangement_module
from gfermat.arrangement import (
    Arrangement,
    Hyperplane,
    StandardParameter,
    _frame_normal_form,
    _integer_duals,
    is_general_position,
    is_standard_parameter,
    normalize,
)
from gfermat.errors import NotInGeneralPosition
from gfermat.exactfield import ExactMatrix
from gfermat.rational import clear_denominators, projective_normalize
from tests import oracles
from tests.conftest import nonzero_rationals, rand_fraction, rand_invertible, rationals, tables
from tests.oracles import arrangement_of, random_parameter

E1 = (1, 0, 0)
E2 = (0, 1, 0)
E3 = (0, 0, 1)
ONES = (1, 1, 1)


def F(*values):
    return tuple(Fraction(v) for v in values)


class TestGeneralPosition:
    def test_canonical_frame(self):
        assert is_general_position([F(*E1), F(*E2), F(*E3), F(*ONES)], 2)

    def test_repeated_projective_point(self):
        assert not is_general_position(
            [F(*E1), F(*E2), F(*E3), F(2, 0, 0)], 2
        )

    def test_dependent_triple(self):
        assert not is_general_position(
            [F(*E1), F(*E2), F(*E3), F(1, 1, 0)], 2
        )

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            is_general_position([F(1, 0), F(0, 1), F(1, 1, 1), F(1, 2)], 1)
        with pytest.raises(ValueError):
            is_general_position([F(1, 0), F(0, 0), F(1, 1)], 1)
        with pytest.raises(ValueError):
            is_general_position([F(*E1), F(*E2)], 2)

    def test_d2_matches_explicit_conditions(self):
        """Agreement with the explicit determinant conditions for lines.

        The candidate duals are e_1, e_2, e_3, (1,1,1) and rows
        (delta_i, mu_i, 1); the explicit conditions are delta_i != mu_i,
        delta_i mu_j != delta_j mu_i, the two families of 3x3 determinants,
        plus both coordinate tuples avoiding {0, 1} and repetitions.
        """
        rng = random.Random(99)
        agree = 0
        for _ in range(200):
            m = rng.randint(1, 3)
            rows = [
                (rand_fraction(rng, 4), rand_fraction(rng, 4)) for _ in range(m)
            ]
            duals = [F(*E1), F(*E2), F(*E3), F(*ONES)] + [
                (a, b, Fraction(1)) for a, b in rows
            ]
            deltas = [r[0] for r in rows]
            mus = [r[1] for r in rows]
            explicit = all(x not in (0, 1) for x in deltas + mus)
            explicit &= all(
                deltas[i] != deltas[j] and mus[i] != mus[j]
                for i in range(m) for j in range(i + 1, m)
            )
            explicit &= all(deltas[i] != mus[i] for i in range(m))
            explicit &= all(
                deltas[i] * mus[j] != deltas[j] * mus[i]
                for i in range(m) for j in range(m) if i != j
            )
            for i in range(m):
                for j in range(i + 1, m):
                    det = oracles.det(ExactMatrix.from_rows([
                        [1, 1, 1],
                        [deltas[i], mus[i], 1],
                        [deltas[j], mus[j], 1],
                    ]))
                    explicit &= det != 0
            for i, j, l in itertools.combinations(range(m), 3):
                det = oracles.det(ExactMatrix.from_rows([
                    [deltas[i], mus[i], 1],
                    [deltas[j], mus[j], 1],
                    [deltas[l], mus[l], 1],
                ]))
                explicit &= det != 0
            assert is_general_position(duals, 2) == explicit
            agree += 1
        assert agree == 200


class TestNormalize:
    def test_clears_each_point_once(self, monkeypatch):
        """The general-position check and the frame share one clearing of
        the dual points: 10 calls for the 10 points of a d = 2, n = 9
        arrangement."""
        calls = []

        def counted(vec):
            calls.append(vec)
            return clear_denominators(vec)

        par = random_parameter(2, 9, random.Random(3))
        arr = arrangement_of(par)
        monkeypatch.setattr(arrangement_module, "clear_denominators", counted)
        assert normalize(arr)[1] == par
        assert len(calls) == 10

    def test_identity_on_canonical_arrangement(self):
        par = StandardParameter(2, 4, ((Fraction(2), Fraction(3)),))
        transform, again = normalize(arrangement_of(par))
        assert again == par
        assert transform.entries == oracles.identity(3).entries

    def test_d1_reads_off_fourth_point(self):
        arr = Arrangement(1, (
            Hyperplane(F(1, 0)), Hyperplane(F(0, 1)),
            Hyperplane(F(1, 1)), Hyperplane(F(2, 1)),
        ))
        _, par = normalize(arr)
        assert par == StandardParameter(1, 3, ((Fraction(2),),))

    def test_kummer_lines_from_raw_branch_values(self):
        """The six lines built directly from branch data normalize to the
        hand-computed cross-ratio table."""
        a = [Fraction(v) for v in (0, 1, 2, 3, 4, 5)]

        def lam(top, tangent):
            return ((top - a[3]) * (a[2] - tangent)) / ((top - tangent) * (a[2] - a[3]))

        duals = [
            F(*E1), F(*E2), F(*E3), F(*ONES),
            (lam(a[0], a[4]), lam(a[1], a[4]), Fraction(1)),
            (lam(a[0], a[5]), lam(a[1], a[5]), Fraction(1)),
        ]
        arr = Arrangement(2, tuple(Hyperplane(q) for q in duals))
        _, par = normalize(arr)
        assert par.columns == (
            (Fraction(3, 2), Fraction(9, 5)),
            (Fraction(4, 3), Fraction(3, 2)),
        )

    def test_pgl_invariance(self):
        """normalize(T' . arrangement_of(p)) recovers p exactly."""
        rng = random.Random(7)
        cases = [(1, 3), (1, 5), (2, 4), (2, 6), (3, 5)]
        done = 0
        while done < 100:
            d, n = cases[done % len(cases)]
            par = random_parameter(d, n, rng)
            transform = rand_invertible(rng, d + 1)
            moved = Arrangement(d, tuple(
                Hyperplane(oracles.matvec(transform, q))
                for q in arrangement_of(par).duals
            ))
            _, recovered = normalize(moved)
            assert recovered == par
            done += 1

    def test_recorded_transform_recovers_canonical_duals(self, rng):
        for _ in range(25):
            d, n = rng.choice([(1, 4), (2, 5), (3, 5)])
            par = random_parameter(d, n, rng)
            transform = rand_invertible(rng, d + 1)
            moved = Arrangement(d, tuple(
                Hyperplane(oracles.matvec(transform, q))
                for q in arrangement_of(par).duals
            ))
            t, recovered = normalize(moved)
            canonical = arrangement_of(recovered).duals
            for q, target in zip(moved.duals, canonical):
                assert projective_normalize(oracles.matvec(t, q)) == target

    def test_not_in_general_position_raises(self):
        arr = Arrangement(1, (
            Hyperplane(F(1, 0)), Hyperplane(F(0, 1)),
            Hyperplane(F(1, 1)), Hyperplane(F(1, 1)),
        ))
        with pytest.raises(NotInGeneralPosition):
            normalize(arr)


def _arrangements(entries):
    """(d, dual points) with d in 1..3 and n+1 points, n in d+1..d+7."""
    def points(d, n):
        point = st.tuples(*[entries] * (d + 1)).filter(any)
        return st.tuples(st.just(d), st.lists(point, min_size=n + 1, max_size=n + 1))

    return st.integers(1, 3).flatmap(
        lambda d: st.integers(d + 1, d + 7).flatmap(lambda n: points(d, n))
    )


def _outcome(fn, d, points):
    """The JSON of (T, parameter), or the exception type raised."""
    arr = Arrangement(d, tuple(Hyperplane(q) for q in points))
    try:
        transform, par = fn(arr)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc)
    return transform.to_json(), par.to_json()


@st.composite
def _dependent_arrangements(draw):
    """An arrangement in which one point is replaced by a nonzero
    combination of at most d others: a repeated projective point when it
    uses one, and never in general position."""
    d, points = draw(_arrangements(rationals))
    sources = draw(st.lists(st.integers(0, len(points) - 1), min_size=1, max_size=d, unique=True))
    target = draw(st.sampled_from([i for i in range(len(points)) if i not in sources]))
    coeffs = draw(st.lists(nonzero_rationals, min_size=len(sources), max_size=len(sources)))
    point = tuple(sum(c * points[i][j] for c, i in zip(coeffs, sources)) for j in range(d + 1))
    assume(any(point))
    points[target] = point
    return d, points


class TestGeneralPositionAgainstFractionReference:
    """The integer minor engine against the Fraction determinant scan."""

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(_arrangements(nonzero_rationals), _arrangements(rationals),
                     _dependent_arrangements()))
    def test_matches_fraction_scan(self, case):
        d, points = case
        assert is_general_position(points, d) == oracles.is_general_position(points, d)

    @settings(max_examples=50, deadline=None)
    @given(_dependent_arrangements())
    def test_forced_dependence_is_rejected(self, case):
        assert not is_general_position(case[1], case[0])

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(tables(nonzero_rationals), tables()))
    def test_standard_parameter_matches_arrangement(self, table):
        par = StandardParameter(*table)
        arr = arrangement_of(par)
        assert is_standard_parameter(par) == is_general_position(arr.duals, arr.d)


class TestNormalizeAgainstFractionReference:
    """The integer frame kernel against the Fraction Gauss-Jordan path."""

    @settings(max_examples=150, deadline=None)
    @given(_arrangements(nonzero_rationals))
    def test_general_position(self, case):
        d, points = case
        if not is_general_position(points, d):
            return
        assert _outcome(normalize, d, points) == _outcome(oracles.normalize, d, points)

    @settings(max_examples=150, deadline=None)
    @given(_arrangements(rationals))
    def test_unchecked_agrees_including_errors(self, case):
        d, points = case
        ours = _outcome(lambda arr: normalize(arr, check=False), d, points)
        assert ours == _outcome(oracles.normalize, d, points)

    def test_pivot_swap_frame(self):
        points = [F(0, 1, 0), F(0, 0, 1), F(1, 0, 0), F(1, 1, 1), F(2, 3, 1)]
        arr = Arrangement(2, tuple(Hyperplane(q) for q in points))
        transform, par = normalize(arr)
        assert transform.to_json() == [["0", "1", "0"], ["0", "0", "1"], ["1", "0", "0"]]
        assert par.rows == ((Fraction(3, 2), Fraction(1, 2)),)
        assert _outcome(normalize, 2, points) == _outcome(oracles.normalize, 2, points)

    def test_unchecked_error_types(self):
        def arrangement(*points):
            return Arrangement(1, tuple(Hyperplane(F(*q)) for q in points))

        with pytest.raises(ValueError):  # singular frame
            normalize(arrangement((1, 0), (2, 0), (1, 1), (2, 1)), check=False)
        with pytest.raises(ZeroDivisionError):  # zero anchor coordinate
            normalize(arrangement((1, 0), (0, 1), (1, 0), (2, 1)), check=False)


def _reduced(fn, *args):
    """fn(*args) with every tuple made a list, or the exception type raised."""
    try:
        return [list(part) for part in fn(*args)]
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc)


_frame_entries = st.one_of(st.sampled_from([0, 1, -1, 2]), st.integers(-10**20, 10**20))


@st.composite
def _integer_frames(draw):
    """(d, points): d+2 to d+5 integer vectors of length d+1, d in 1..4,
    often with a singular frame or a zero anchor coordinate."""
    d = draw(st.integers(1, 4))
    count = draw(st.integers(d + 2, d + 5))
    point = st.lists(_frame_entries, min_size=d + 1, max_size=d + 1).map(tuple)
    return d, draw(st.lists(point, min_size=count, max_size=count))


class TestFrameNormalFormAgainstInverse:
    """The one elimination of the frame against [H | a | Q] against the frame
    inverse multiplied out per point (``oracles.frame_normal_form``)."""

    @settings(max_examples=300, deadline=None)
    @given(_integer_frames())
    @example((1, [(1, 0), (2, 0), (1, 1), (2, 1)]))  # singular frame
    @example((1, [(1, 0), (0, 1), (1, 0), (2, 1)]))  # zero anchor coordinate
    @example((2, [(0, 1, 0), (0, 0, 1), (1, 0, 0), (1, 1, 1), (2, 3, 1)]))  # pivot swap
    def test_matches_reference(self, case):
        d, points = case
        identity = [tuple(int(i == j) for i in range(d + 1)) for j in range(d + 1)]
        expected = _reduced(oracles.frame_normal_form, points, d)
        assert _reduced(_frame_normal_form, points, d, identity) == expected
        act_path = _reduced(_frame_normal_form, points, d, ())
        if isinstance(expected, type):
            assert act_path == expected
        else:
            assert act_path == [[[]] * (d + 1), *expected[1:]]

    def test_error_types(self):
        with pytest.raises(ValueError):
            _frame_normal_form([(1, 0), (2, 0), (1, 1), (2, 1)], 1, ())
        with pytest.raises(ZeroDivisionError):
            _frame_normal_form([(1, 0), (0, 1), (1, 0), (2, 1)], 1, ())


class TestStandardParameter:
    def test_membership_examples(self):
        assert is_standard_parameter(StandardParameter(1, 3, ((Fraction(2),),)))
        assert not is_standard_parameter(StandardParameter(1, 3, ((Fraction(1),),)))
        assert not is_standard_parameter(
            StandardParameter(2, 5, ((Fraction(1), Fraction(1)), (Fraction(2), Fraction(5))))
        )

    def test_arrangement_of_assembles_duals(self):
        par = StandardParameter(2, 4, ((Fraction(2), Fraction(3)),))
        duals = arrangement_of(par).duals
        expected = (F(*E1), F(*E2), F(*E3), F(*ONES), F(2, 3, 1))
        assert duals == tuple(projective_normalize(q) for q in expected)

    def test_single_point_space(self):
        par = StandardParameter(2, 3, ())
        assert is_standard_parameter(par)
        assert arrangement_of(par).duals == (F(*E1), F(*E2), F(*E3), F(*ONES))

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            StandardParameter(2, 4, ())
        with pytest.raises(ValueError):
            StandardParameter(2, 4, ((Fraction(1),),))

    def test_json_round_trip(self, rng):
        par = random_parameter(2, 5, rng)
        assert StandardParameter.from_json(par.to_json()) == par


class TestIntegerDuals:
    """The integer dual points read straight off the ``Fraction`` rows
    against ``clear_denominators`` of each row with a trailing 1."""

    @settings(max_examples=300, deadline=None)
    @given(tables())
    @example((1, 2, ()))
    @example((3, 5, ((Fraction(0), Fraction(-1, 10**30), Fraction(7, 3)),)))
    def test_matches_clear_denominators(self, table):
        """Entries zero, of small and of 10^30 height; tables on and off X_{n,d}."""
        par = StandardParameter(*table)
        duals = _integer_duals(par)
        assert duals == oracles.integer_duals(par)
        assert all(type(x) is int for point in duals for x in point)
