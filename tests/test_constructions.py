"""Tests for the Kummer, line-restriction and tangent-conic constructions."""

import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from gfermat.arrangement import StandardParameter, is_general_position, is_standard_parameter
from gfermat.constructions import (
    Conic,
    conic_curve_parameters,
    kummer_parameters,
    restrict_to_line,
    tangent_conic,
)
from gfermat.errors import NotInGeneralPosition, TangencyError
from gfermat.exactfield import ExactMatrix
from gfermat.modaction import are_isomorphic
from tests import oracles
from tests.conftest import rand_fraction
from tests.oracles import arrangement_of, random_parameter

CANONICAL_LINES = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1))


def big_fraction(rng, digits=30):
    """A signed fraction whose numerator and denominator have ``digits``
    digits each."""
    low = 10 ** (digits - 1)
    return Fraction(rng.choice((-1, 1)) * rng.randrange(low, 10 * low),
                    rng.randrange(low, 10 * low))


class TestKummer:
    def test_frozen_example(self):
        par = kummer_parameters([0, 1, 2, 3, 4, 5])
        assert par.columns == (
            (Fraction(3, 2), Fraction(9, 5)),
            (Fraction(4, 3), Fraction(3, 2)),
        )
        assert is_standard_parameter(par)

    def test_repeated_branch_value_rejected(self):
        with pytest.raises(ValueError):
            kummer_parameters([0, 0, 2, 3, 4, 5])

    def test_always_standard_parameter(self):
        rng = random.Random(4)
        done = 0
        while done < 100:
            alphas = {rand_fraction(rng, 12) for _ in range(6)}
            if len(alphas) != 6:
                continue
            assert is_standard_parameter(kummer_parameters(sorted(alphas)))
            done += 1

    def test_symmetric_branch_values_yield_stabilizer(self):
        """The affine involution a -> 5 - a of the branch sextic descends to
        the reversal of the six lines, so the parameter of (0,...,5) has a
        stabilizer of order two while a generic sextic has none."""
        from gfermat.modaction import orbit_and_stabilizer

        rep = orbit_and_stabilizer(kummer_parameters([0, 1, 2, 3, 4, 5]))
        assert rep.stabilizer_order == 2
        assert {p.one_line() for p in rep.stabilizer} == {
            (1, 2, 3, 4, 5, 6), (6, 5, 4, 3, 2, 1)
        }
        generic = orbit_and_stabilizer(kummer_parameters([0, 1, 3, 7, 12, 20]))
        assert generic.stabilizer_order == 1

    def test_matches_ratio_reference(self):
        """Outcomes, errors included, equal the per-entry ratio reference on
        seeded 6-tuples of small values, many with a repeated value."""
        rng = random.Random(20261019)
        kinds = Counter()
        for _ in range(1500):
            alphas = [rng.choice((0, 1, -1, 2)) if rng.random() < 0.1 else rand_fraction(rng, 5)
                      for _ in range(6)]
            got = oracles.outcome(kummer_parameters, alphas)
            assert got == oracles.outcome(oracles.kummer_by_ratio, alphas)
            kinds[got[0] if got[0] == "value" else got[2]] += 1
        assert kinds["value"] >= 500
        assert kinds["branch values must be pairwise distinct"] >= 100

    def test_affine_invariance(self):
        """Every entry is a cross-ratio, so a -> c a + e leaves it fixed."""
        rng = random.Random(6)
        done = 0
        while done < 100:
            alphas = {rand_fraction(rng, 12) for _ in range(6)}
            if len(alphas) != 6:
                continue
            alphas = sorted(alphas)
            c = rand_fraction(rng, nonzero=True)
            e = rand_fraction(rng)
            moved = [c * a + e for a in alphas]
            assert kummer_parameters(moved) == kummer_parameters(alphas)
            done += 1


class TestRestrictToLine:
    def test_formulas_match_cross_ratio_oracle(self):
        """Independent check: the intersection points of the line with the
        branch lines, normalized so the first three go to infinity, 0, 1,
        have cross-ratio values equal to the emitted parameter."""
        rng = random.Random(12)
        done = 0
        while done < 30:
            n = rng.choice([4, 5, 6])
            par = random_parameter(2, n, rng)
            rho = tuple(rand_fraction(rng, 6) for _ in range(3))
            if not any(rho):
                continue
            try:
                result = restrict_to_line(par, rho)
            except (NotInGeneralPosition, ValueError):
                continue
            zs = [(p[0], p[1]) for p in result.points]

            def bracket(p, q):
                return p[0] * q[1] - p[1] * q[0]

            def moebius(z):
                return (bracket(z, zs[1]) * bracket(zs[2], zs[0])) / (
                    bracket(z, zs[0]) * bracket(zs[2], zs[1])
                )

            oracle = [moebius(z) for z in zs[3:]]
            assert oracle == [row[0] for row in result.eta.rows]
            assert is_standard_parameter(result.eta)
            assert not result.singular
            done += 1

    def test_matches_closed_form_reference(self):
        """Outcomes, errors included, equal the closed-form reference, with
        and without ``allow_singular``: small tables for n = 3..7 (some off
        X_{n,2}) against lines with small integer duals, which often pass
        through a crossing of branch lines or are one of them."""
        rng = random.Random(20261020)
        kinds = Counter()
        for _ in range(150):
            n = rng.randint(3, 7)
            if rng.random() < 0.7:
                par = random_parameter(2, n, rng, bound=3)
            else:
                par = StandardParameter(2, n, tuple(
                    (Fraction(rng.randint(-2, 2)), Fraction(rng.randint(-2, 2)))
                    for _ in range(n - 3)))
            for _ in range(6):
                rho = [rng.randint(-2, 2) for _ in range(3)]
                for allow in (False, True):
                    got = oracles.outcome(restrict_to_line, par, rho, allow_singular=allow)
                    want = oracles.outcome(oracles.restrict_by_closed_forms, par, rho,
                                           allow_singular=allow)
                    assert got == want
                    kinds[("singular" if got[2].singular else "clean") if got[0] == "value"
                          else got[2]] += 1
        assert kinds["clean"] >= 100 and kinds["singular"] >= 50
        assert kinds["parameter is not in X_{n,2}"] >= 50
        assert kinds["restriction formulas degenerate for this line"] >= 50
        assert kinds["the line is not in general position with the branch lines"] >= 100
        assert kinds["cannot normalize the zero vector"] >= 1

    def test_matches_closed_form_reference_at_large_heights(self):
        """The same comparison with duals rho of 30-digit fractions: a
        generic line, a line through the crossing of two branch lines, and
        a rescaled branch line, with and without ``allow_singular``."""
        rng = random.Random(20261022)
        kinds = Counter()
        for _ in range(40):
            n = rng.randint(3, 7)
            par = random_parameter(2, n, rng)
            duals = oracles.integer_duals(par)
            q, r = rng.sample(duals, 2)
            alpha, beta = big_fraction(rng), big_fraction(rng)
            lines = [
                tuple(big_fraction(rng) for _ in range(3)),
                tuple(alpha * x + beta * y for x, y in zip(q, r)),
                tuple(alpha * x for x in q),
            ]
            for rho in lines:
                for allow in (False, True):
                    got = oracles.outcome(restrict_to_line, par, rho, allow_singular=allow)
                    want = oracles.outcome(oracles.restrict_by_closed_forms, par, rho,
                                           allow_singular=allow)
                    assert got == want
                    kinds[("singular" if got[2].singular else "clean") if got[0] == "value"
                          else got[2]] += 1
        assert kinds["clean"] >= 70 and kinds["singular"] >= 20
        assert kinds["restriction formulas degenerate for this line"] >= 20
        assert kinds["the line is not in general position with the branch lines"] >= 40

    def test_singular_flag_is_the_augmented_general_position(self):
        """``singular`` reads only the brackets rho . (q x r) through the
        new line; it is the old sweep of every minor of the branch lines
        and the new line together, and without ``allow_singular`` exactly
        the lines it tags are refused."""
        rng = random.Random(20261024)
        tagged = Counter()
        for _ in range(120):
            n = rng.randint(3, 8)
            par = random_parameter(2, n, rng, bound=rng.choice((3, 10**30)))
            duals = oracles.integer_duals(par)
            kind = rng.randrange(3)
            if kind == 0:
                rho = tuple(rng.randint(-3, 3) for _ in range(3))
            elif kind == 1:
                rho = tuple(big_fraction(rng) for _ in range(3))
            else:
                q, r = rng.sample(duals, 2)
                alpha, beta = big_fraction(rng), rand_fraction(rng, 4)
                rho = tuple(alpha * x + beta * y for x, y in zip(q, r))
            if not any(rho):
                continue
            general = is_general_position(duals + [rho], 2)
            got = oracles.outcome(restrict_to_line, par, rho, allow_singular=True)
            if got[0] == "value":
                assert got[2].singular == (not general)
                tagged[got[2].singular] += 1
            strict = oracles.outcome(restrict_to_line, par, rho)
            if not general:
                assert strict[:2] == ("raised", NotInGeneralPosition)
                assert strict[2] == "the line is not in general position with the branch lines"
            else:
                assert strict == got
        assert tagged[True] >= 20 and tagged[False] >= 20

    def test_points_lie_on_line_and_branch_lines(self):
        rng = random.Random(14)
        par = random_parameter(2, 5, rng)
        rho = (Fraction(1), Fraction(2), Fraction(5))
        result = restrict_to_line(par, rho)
        duals = arrangement_of(par).duals
        for point, dual in zip(result.points, duals):
            assert sum(r * x for r, x in zip(rho, point)) == 0
            assert sum(q * x for q, x in zip(dual, point)) == 0

    def test_degenerate_line_raises(self):
        par = kummer_parameters([0, 1, 2, 3, 4, 5])
        with pytest.raises(NotInGeneralPosition):
            restrict_to_line(par, (1, 1, 1))  # the line is branch line 4

    def test_concurrent_line_tagged_singular_when_allowed(self):
        par = kummer_parameters([0, 1, 2, 3, 4, 5])
        duals = arrangement_of(par).duals
        # a line in the pencil through the intersection of lines 4 and 5
        rho = tuple(a + b for a, b in zip(duals[3], duals[4]))
        with pytest.raises(NotInGeneralPosition):
            restrict_to_line(par, rho)
        result = restrict_to_line(par, rho, allow_singular=True)
        assert result.singular

    def test_requires_surface_parameter(self):
        with pytest.raises(ValueError):
            restrict_to_line(
                StandardParameter(1, 3, ((Fraction(2),),)), (1, 2, 5)
            )

    def test_base_case_four_lines(self):
        """n = 3: restricting the bare canonical arrangement to a general
        line yields the one-entry curve parameter eta_1."""
        par = StandardParameter(2, 3, ())
        rho = (Fraction(1), Fraction(2), Fraction(7))
        result = restrict_to_line(par, rho)
        r1, r2, r3 = rho
        assert result.eta.rows == ((r2 * (r3 - r1) / (r1 * (r3 - r2)),),)
        assert is_standard_parameter(result.eta)
        assert len(result.points) == 4


class TestTangentConic:
    def test_frozen_coefficients(self):
        conic = tangent_conic(1)
        assert conic.coefficients == (4, 1, 1, 4, 4, -2)

    def test_degenerate_parameters_rejected(self):
        for a in (0, 2):
            with pytest.raises(ValueError):
                tangent_conic(a)

    def test_tangent_to_canonical_lines(self):
        for a in (1, 3, -1, Fraction(5, 7), Fraction(-3, 2)):
            conic = tangent_conic(a)
            for rho in CANONICAL_LINES:
                assert oracles.is_tangent(rho, conic)

    def test_matrix_nonsingular(self):
        for a in (1, -2, Fraction(7, 3)):
            assert oracles.det(tangent_conic(a).matrix()) != 0

    def test_singular_conic_rejected_by_type(self):
        with pytest.raises(ValueError):
            Conic((1, 1, 0, 2, 0, 0))  # (t1 + t2)^2


def symmetric_matrix(coeffs):
    """The symmetric matrix of a1 t1^2 + a2 t2^2 + a3 t3^2 + a4 t1 t2 +
    a5 t1 t3 + a6 t2 t3, built here rather than by ``Conic``."""
    a1, a2, a3, a4, a5, a6 = (Fraction(c) for c in coeffs)
    return ExactMatrix.from_rows([[a1, a4 / 2, a5 / 2], [a4 / 2, a2, a6 / 2],
                                  [a5 / 2, a6 / 2, a3]])


def conic_coefficients(rng):
    """Small integers with many zeros, rationals, or the product of two
    linear forms (always singular: a line pair or a double line)."""
    kind = rng.randrange(3)
    if kind == 0:
        return tuple(rng.choice((-2, -1, 0, 0, 0, 1, 2)) for _ in range(6))
    if kind == 1:
        return tuple(rand_fraction(rng, 5) for _ in range(6))
    (a, b, c), (e, f, g) = [[rand_fraction(rng, 4) for _ in range(3)] for _ in range(2)]
    return (a * e, b * f, c * g, a * f + b * e, a * g + c * e, b * g + c * f)


class TestConicClosedForms:
    def test_dual_matrix_and_singularity_match_cofactor_oracle(self):
        """On 400 seeded tuples: ``Conic`` refuses exactly those whose
        cofactor determinant is 0, and the closed-form dual matrix of every
        other one is the cofactor adjugate."""
        rng = random.Random(20261018)
        tuples = [(1, 1, 0, 2, 0, 0), (0, 0, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0),
                  (0, 0, 0, 1, 1, 1)] + [conic_coefficients(rng) for _ in range(396)]
        singular = 0
        for coeffs in tuples:
            matrix = symmetric_matrix(coeffs)
            if oracles.det_cofactor(matrix) == 0:
                singular += 1
                with pytest.raises(ValueError, match="singular"):
                    Conic(coeffs)
                continue
            conic = Conic(coeffs)
            assert conic.matrix() == matrix
            assert conic.dual_matrix() == oracles.adjugate_cofactor(matrix)
        assert 100 <= singular <= len(tuples) - 100

    def test_singularity_at_large_heights(self):
        """The integer rows 2sQ decide singularity for coefficients of
        30-digit fractions: a product of two linear forms is refused, and
        the rest agree with the cofactor determinant."""
        rng = random.Random(20261026)
        for _ in range(40):
            (a, b, c), (e, f, g) = [[big_fraction(rng) for _ in range(3)] for _ in range(2)]
            with pytest.raises(ValueError, match="singular"):
                Conic((a * e, b * f, c * g, a * f + b * e, a * g + c * e, b * g + c * f))
            coeffs = tuple(big_fraction(rng) for _ in range(6))
            assert oracles.det_cofactor(symmetric_matrix(coeffs)) != 0
            assert Conic(coeffs).dual_matrix() == oracles.adjugate_cofactor(symmetric_matrix(coeffs))


class TestIsTangent:
    def test_hand_expanded_example(self):
        # rho = (0, 1, -1) against the a = 1 conic: the adjugate is
        # [[0,-4,-4],[-4,0,8],[-4,8,0]], so the value is 0+0-2*8 = -16 != 0
        assert not oracles.is_tangent((0, 1, -1), tangent_conic(1))

    def test_secant_line_rejected(self):
        conic = tangent_conic(1)
        # the tangency points of lines 1 and 2 lie on the conic; their
        # connecting line is a secant
        p, q = (0, 1, 1), (1, 0, -2)
        assert oracles.conic_contains(conic, p) and oracles.conic_contains(conic, q)
        secant = (
            p[1] * q[2] - p[2] * q[1],
            p[2] * q[0] - p[0] * q[2],
            p[0] * q[1] - p[1] * q[0],
        )
        assert not oracles.is_tangent(secant, conic)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            oracles.is_tangent((0, 0, 0), tangent_conic(1))


def fifth_tangent_line(a, t):
    """A rational point of the dual conic in the pencil through e_1:
    u = e_1 + s (0, 1, t) with s chosen by the second intersection."""
    adj = tangent_conic(a).dual_matrix()
    e1 = (Fraction(1), Fraction(0), Fraction(0))
    v = (Fraction(0), Fraction(1), Fraction(t))
    quad = sum(x * y for x, y in zip(v, oracles.matvec(adj, v)))
    lin = sum(x * y for x, y in zip(e1, oracles.matvec(adj, v)))
    if quad == 0:
        raise ValueError("direction meets the dual conic at infinity")
    s = -2 * lin / quad
    if s == 0:
        raise ValueError("second intersection coincides with e_1")
    return tuple(x + s * y for x, y in zip(e1, v))


class TestConicCurveParameters:
    def test_base_case_n3(self):
        par = StandardParameter(2, 3, ())
        result = conic_curve_parameters(1, par)
        assert len(result.tangency_points) == 4
        assert len(result.eta.rows) == 1
        assert is_standard_parameter(result.eta)

    def test_constructed_fifth_tangent_line(self):
        u = fifth_tangent_line(1, 2)
        conic = tangent_conic(1)
        assert oracles.is_tangent(u, conic)
        lam, mu = u[0] / u[2], u[1] / u[2]
        par = StandardParameter(2, 4, ((lam, mu),))
        assert is_standard_parameter(par)
        result = conic_curve_parameters(1, par)
        assert len(result.eta.rows) == 2
        assert is_standard_parameter(result.eta)
        values = [row[0] for row in result.eta.rows]
        assert all(v not in (0, 1) for v in values)
        assert len(set(values)) == 2

    def test_non_tangent_line_reports_index(self):
        rng = random.Random(21)
        while True:
            par = random_parameter(2, 4, rng)
            lam, mu = par.rows[0]
            if not oracles.is_tangent((lam, mu, 1), tangent_conic(1)):
                break
        with pytest.raises(TangencyError) as info:
            conic_curve_parameters(1, par)
        assert info.value.index == 5

    def test_anchor_relabeling_moves_along_the_orbit(self):
        u = fifth_tangent_line(1, 3)
        lam, mu = u[0] / u[2], u[1] / u[2]
        par = StandardParameter(2, 4, ((lam, mu),))
        base = conic_curve_parameters(1, par).eta
        for anchors in [(2, 3, 1), (1, 2, 4), (3, 5, 2)]:
            other = conic_curve_parameters(1, par, anchors=anchors).eta
            assert are_isomorphic(base, other).equivalent

    @pytest.mark.parametrize("bad", [1.9, 1.0, Fraction(1), "1", True])
    def test_non_int_anchor_refused(self, bad):
        """An anchor that is not an ``int`` is refused, not truncated; the
        tangency check still comes first."""
        u = fifth_tangent_line(1, 3)
        par = StandardParameter(2, 4, ((u[0] / u[2], u[1] / u[2]),))
        for anchors in [(bad, 2, 3), (2, 3, bad)]:
            with pytest.raises(ValueError, match="anchors must be three distinct 1-based indices"):
                conic_curve_parameters(1, par, anchors=anchors)
        with pytest.raises(TangencyError):
            conic_curve_parameters(1, StandardParameter(2, 4, ((Fraction(2), Fraction(3)),)),
                                   anchors=(bad, 2, 3))

    def test_matches_pencil_projection_reference(self):
        """Outcomes, errors included, equal the pencil-projection reference
        on tables of lines tangent to one conic for n = 3..6, each with every
        ordered anchor triple, and on a non-tangent table and bad anchors."""
        rng = random.Random(20261021)
        tables = []
        while len(tables) < 8:
            a = rand_fraction(rng, 4)
            n = 3 + len(tables) // 2
            if a in (0, 2):
                continue
            try:
                lines = [fifth_tangent_line(a, rand_fraction(rng, 5)) for _ in range(n - 3)]
            except (ValueError, ZeroDivisionError):
                continue
            if any(u[2] == 0 for u in lines):
                continue
            par = StandardParameter(2, n, tuple((u[0] / u[2], u[1] / u[2]) for u in lines))
            if is_standard_parameter(par):
                tables.append((a, par))
        calls = [(a, par, anchors) for a, par in tables
                 for anchors in itertools.permutations(range(1, par.n + 2), 3)]
        a, par = tables[-1]
        bad = [(1, 1, 2), (0, 1, 2), (1, 2, par.n + 2), (1, 2), ("x", 1, 2)]
        calls += [(a, par, anchors) for anchors in bad]
        calls += [(0, par, (1, 2, 3)), (a, kummer_parameters([0, 1, 2, 3, 4, 5]), (1, 2, 3))]
        kinds = Counter()
        for a, par, anchors in calls:
            got = oracles.outcome(conic_curve_parameters, a, par, anchors)
            assert got == oracles.outcome(oracles.conic_by_pencil_projection, a, par, anchors)
            kinds[got[0] if got[0] == "value" else got[1]] += 1
        assert kinds["value"] == sum(math.perm(par.n + 1, 3) for _, par in tables)
        assert kinds[ValueError] == 6 and kinds[TangencyError] == 1

    def test_matches_pencil_projection_reference_at_large_heights(self):
        """Outcomes equal the pencil-projection reference for a of 30-digit
        numerator and denominator, so the scale s of the integer rows 2sQ
        has about 60 digits, with tangent lines through directions of
        30-digit fractions for n = 3..6, over every ordered anchor triple,
        and on a line that is not tangent."""
        rng = random.Random(20261025)
        tables = []
        while len(tables) < 4:
            a, n = big_fraction(rng), 3 + len(tables)
            try:
                lines = [fifth_tangent_line(a, big_fraction(rng)) for _ in range(n - 3)]
            except (ValueError, ZeroDivisionError):
                continue
            if any(u[2] == 0 for u in lines):
                continue
            par = StandardParameter(2, n, tuple((u[0] / u[2], u[1] / u[2]) for u in lines))
            if is_standard_parameter(par):
                tables.append((a, par))
        assert all(len(str(abs(a.numerator))) >= 30 and len(str(a.denominator)) >= 30
                   for a, _ in tables)
        calls = [(a, par, anchors) for a, par in tables
                 for anchors in itertools.permutations(range(1, par.n + 2), 3)]
        a, par = tables[-1]
        secant = StandardParameter(2, par.n, par.rows[:-1] + ((par.rows[-1][0] + 1,
                                                               par.rows[-1][1]),))
        calls.append((a, secant, (1, 2, 3)))
        kinds = Counter()
        for a, par, anchors in calls:
            got = oracles.outcome(conic_curve_parameters, a, par, anchors)
            assert got == oracles.outcome(oracles.conic_by_pencil_projection, a, par, anchors)
            kinds[got[0] if got[0] == "value" else got[1]] += 1
        assert kinds["value"] == sum(math.perm(par.n + 1, 3) for _, par in tables)
        assert kinds[TangencyError] == 1

    def test_tangency_points_lie_on_conic_and_lines(self):
        par = StandardParameter(2, 3, ())
        conic = tangent_conic(-1)
        result = conic_curve_parameters(-1, par)
        assert len(set(result.tangency_points)) == par.n + 1
        duals = arrangement_of(par).duals
        for point, dual in zip(result.tangency_points, duals):
            assert oracles.conic_contains(conic, point)
            assert sum(q * x for q, x in zip(dual, point)) == 0
