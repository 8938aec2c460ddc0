"""Tests for exact scalars, cyclotomic arithmetic, exact linear algebra and
the integer exact core."""

import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gfermat
from gfermat.exactfield import CyclotomicScalar, ExactMatrix, cyclotomic_polynomial
from gfermat.rational import (
    clear_denominators,
    fraction_free_inverse,
    minors,
    projective_normalize,
    rational_from_string,
    rational_to_string,
)
from tests import oracles
from tests.conftest import BIG, rand_fraction, rand_invertible, rationals


def poly_mul_int(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return out


class TestCyclotomicPolynomial:
    def test_base_cases(self):
        assert cyclotomic_polynomial(1) == (-1, 1)          # x - 1
        assert cyclotomic_polynomial(2) == (1, 1)           # x + 1
        assert cyclotomic_polynomial(6) == (1, -1, 1)       # x^2 - x + 1

    def test_divisor_product_is_x_k_minus_1(self):
        for k in range(1, 25):
            product = [1]
            for e in range(1, k + 1):
                if k % e == 0:
                    product = poly_mul_int(product, list(cyclotomic_polynomial(e)))
            expected = [-1] + [0] * (k - 1) + [1]
            assert product == expected, k

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            cyclotomic_polynomial(0)

    def test_large_order_with_nontrivial_coefficient(self):
        # Phi_105 is the first cyclotomic polynomial with a coefficient
        # outside {-1, 0, 1}
        assert -2 in cyclotomic_polynomial(105)
        assert len(cyclotomic_polynomial(100)) == 41


class TestCyclotomicScalar:
    def test_zeta_satisfies_phi_and_unity(self):
        for k in range(1, 13):
            zeta = CyclotomicScalar.zeta(k)
            phi = cyclotomic_polynomial(k)
            acc = CyclotomicScalar.zero(k)
            power = CyclotomicScalar.one(k)
            for c in phi:
                acc = acc + power * c
                power = power * zeta
            assert not acc, f"Phi_{k}(zeta) != 0"
            zk = CyclotomicScalar.one(k)
            for _ in range(k):
                zk = zk * zeta
            assert zk == 1, f"zeta_{k}^{k} != 1"

    def test_sixth_root_relation(self):
        z = CyclotomicScalar.zeta(6)
        assert z * z - z + 1 == 0

    def test_inverse_and_division(self):
        rng = random.Random(5)
        for k in (3, 4, 5, 7, 12):
            for _ in range(10):
                coeffs = [rand_fraction(rng) for _ in range(len(cyclotomic_polynomial(k)) - 1)]
                value = CyclotomicScalar.from_poly(k, coeffs)
                if not value:
                    continue
                assert value * value.inverse() == 1
                assert (1 / value) * value == 1

    def test_mixed_arithmetic_with_rationals(self):
        z = CyclotomicScalar.zeta(4)
        assert z + Fraction(1, 2) == CyclotomicScalar.from_poly(4, [Fraction(1, 2), 1])
        assert Fraction(2) * z == CyclotomicScalar.from_poly(4, [0, 2])
        assert (z - z) == 0

    def test_order_mismatch_rejected(self):
        with pytest.raises(ValueError):
            CyclotomicScalar.zeta(3) + CyclotomicScalar.zeta(4)

    def test_json_round_trip(self):
        z = CyclotomicScalar.zeta(5, 2) / 3
        data = z.to_json()
        assert CyclotomicScalar.from_poly(data["k"], map(rational_from_string, data["coeffs"])) == z

    def test_promotion_to_multiple_order(self):
        # zeta_3 = zeta_6^2, and promotion respects arithmetic
        z3 = CyclotomicScalar.zeta(3)
        z6 = CyclotomicScalar.zeta(6)
        assert z3.promote(6) == z6 * z6
        value = z3 + Fraction(1, 2)
        assert value.promote(6) == z6 * z6 + Fraction(1, 2)
        assert value.promote(3) is value
        with pytest.raises(ValueError):
            z3.promote(4)


ORACLE_ORDERS = (1, 2, 3, 4, 5, 6, 8, 9, 12, 13, 15, 30, 60, 105)


def assert_matches_oracle(got, want):
    """The same JSON bytes and truth value as the Fraction field, the same
    comparisons with 0, 1 and the constant coefficient, and a rational value
    hashes as its Fraction."""
    assert json.dumps(got.to_json()) == json.dumps(want.to_json())
    assert bool(got) == bool(want)
    for rational in (0, 1, want.coeffs[0]):
        assert (got == rational) == (want == rational)
    if not any(want.coeffs[1:]):
        assert hash(got) == hash(want.coeffs[0])


class TestCyclotomicOracle:
    @pytest.mark.parametrize("k", ORACLE_ORDERS)
    def test_matches_fraction_field(self, k):
        """+, -, x, inverse and promote to 2k and 3k against the Fraction
        field.  Coefficient lists are empty, of one term, of deg Phi_k terms
        or longer than k; every second y is x rewritten as x + Phi_k * c, so
        equal values built from different lists must compare and hash equal.
        Two trials at k = 105, where the Fraction field's products are slow."""
        rng = random.Random(k)
        phi = cyclotomic_polynomial(k)
        for trial in range(2 if k > 100 else 4):
            a = [rand_fraction(rng) for _ in range(rng.choice((0, 1, len(phi) - 1, k + 2)))]
            if trial % 2:
                c = [rand_fraction(rng) for _ in range(rng.randint(1, 3))]
                b = poly_mul_int(list(phi), c)
                b = [x + y for x, y in zip(b, a + [0] * len(b))] + a[len(b):]
            else:
                b = [rand_fraction(rng) for _ in range(rng.choice((0, 1, k + 2)))]
            x, y = CyclotomicScalar.from_poly(k, a), CyclotomicScalar.from_poly(k, b)
            ox = oracles.FractionCyclotomic.from_poly(k, a)
            oy = oracles.FractionCyclotomic.from_poly(k, b)
            pairs = [(x, ox), (y, oy), (x + y, ox + oy), (x - y, ox - oy), (x * y, ox * oy),
                     (x.promote(2 * k), ox.promote(2 * k)), (x.promote(3 * k), ox.promote(3 * k))]
            if x:
                pairs.append((x.inverse(), ox.inverse()))
            for got, want in pairs:
                assert_matches_oracle(got, want)
            assert (x == y) == (ox == oy)
            if trial % 2:
                assert x == y and hash(x) == hash(y)

    def test_inverse_at_order_101(self):
        """A dense element of Q(zeta_101) (the Fraction field's inverse takes
        minutes there): x * x^-1 == 1."""
        rng = random.Random(101)
        x = CyclotomicScalar.from_poly(101, [rand_fraction(rng) for _ in range(100)])
        assert x * x.inverse() == 1

    def test_rational_values_compare_and_hash_as_fractions(self, monkeypatch):
        """A rational-valued scalar equals its Fraction and hashes like it,
        and comparing a scalar with a rational builds no scalar."""
        two = CyclotomicScalar.from_rational(5, 2)
        half = CyclotomicScalar.from_rational(12, Fraction(5, 2))
        assert two == 2 and len({two, 2}) == 1 and len({two, Fraction(2)}) == 1
        assert half == Fraction(5, 2) and len({half, Fraction(5, 2)}) == 1
        assert half != 2 and two != Fraction(5, 2) and two != 0

        def refuse(cls, *args):
            raise AssertionError("built a scalar to compare with a rational")

        monkeypatch.setattr(CyclotomicScalar, "from_rational", classmethod(refuse))
        z = CyclotomicScalar.zeta(5)
        assert z != 0 and z != 1 and two == 2 and half != 0


class TestRationalStrings:
    def test_round_trip(self):
        assert rational_from_string("3/2") == Fraction(3, 2)
        assert rational_to_string(Fraction(-4, 2)) == "-2"
        assert rational_to_string(Fraction(7, 3)) == "7/3"

    def test_invalid(self):
        with pytest.raises((ValueError, ZeroDivisionError)):
            rational_from_string("1/0")


class TestProjectiveNormalize:
    @pytest.mark.parametrize(
        "vec,expected",
        [
            ((2, 4, 6), (1, 2, 3)),
            ((0, 5, 10), (0, 1, 2)),
            ((0, 0, -3), (0, 0, 1)),
        ],
    )
    def test_examples(self, vec, expected):
        got = projective_normalize(tuple(Fraction(v) for v in vec))
        assert got == tuple(Fraction(e) for e in expected)

    def test_scaling_invariance_and_idempotence(self, rng):
        for _ in range(100):
            vec = tuple(rand_fraction(rng) for _ in range(4))
            if not any(vec):
                continue
            c = rand_fraction(rng, nonzero=True)
            scaled = tuple(c * x for x in vec)
            assert projective_normalize(scaled) == projective_normalize(vec)
            assert projective_normalize(projective_normalize(vec)) == projective_normalize(vec)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            projective_normalize((Fraction(0), Fraction(0)))

    @given(st.lists(st.integers(-BIG, BIG), min_size=1, max_size=5).filter(any))
    @example([3, 1])
    @example([0, -4, 6])
    def test_int_vector_scales_exactly(self, vec):
        """An int vector and its Fraction copy give the same Fraction tuple:
        an int pivot must not make ``/`` round to a float."""
        got = projective_normalize(vec)
        assert got == projective_normalize([Fraction(x) for x in vec])
        assert all(type(x) is Fraction for x in got)
        pivot = next(x for x in vec if x)
        assert got == tuple(Fraction(x, pivot) for x in vec)

    def test_package_export_on_ints(self):
        assert gfermat.projective_normalize((3, 1)) == (Fraction(1), Fraction(1, 3))


class TestSolveLinear:
    def test_identity(self):
        eye = oracles.identity(3)
        rhs = (Fraction(1), Fraction(-2), Fraction(5, 3))
        result = oracles.solve_linear(eye, rhs)
        assert result.status == "unique"
        assert result.solution == rhs

    def test_inconsistent(self):
        matrix = ExactMatrix.from_rows([[1, 1], [2, 2]])
        result = oracles.solve_linear(matrix, (Fraction(1), Fraction(3)))
        assert result.status == "inconsistent"
        assert result.rank == 1

    def test_scalar(self):
        result = oracles.solve_linear(ExactMatrix.from_rows([[2]]), (Fraction(3),))
        assert result.status == "unique"
        assert result.solution == (Fraction(3, 2),)

    def test_int_matrix_solves_exactly(self):
        matrix = ExactMatrix.from_rows([[2, 1], [1, 3]])
        result = oracles.solve_linear(matrix, (Fraction(1), Fraction(2)))
        assert result.solution == (Fraction(1, 5), Fraction(3, 5))
        assert not any(isinstance(x, float) for x in result.solution)

    def test_underdetermined_free_variables_zero(self):
        matrix = ExactMatrix.from_rows([[1, 1, 0], [0, 0, 1]])
        result = oracles.solve_linear(matrix, (Fraction(2), Fraction(7)))
        assert result.status == "underdetermined"
        assert result.solution == (Fraction(2), Fraction(0), Fraction(7))
        assert result.rank == 2

    def test_random_full_rank_round_trip(self, rng):
        for _ in range(100):
            size = rng.randint(1, 5)
            matrix = rand_invertible(rng, size)
            x = tuple(rand_fraction(rng) for _ in range(size))
            result = oracles.solve_linear(matrix, matrix.matvec(x))
            assert result.status == "unique"
            assert result.solution == x


class TestDeterminants:
    def test_bareiss_equals_cofactor_on_random_matrices(self, rng):
        for _ in range(100):
            size = rng.randint(1, 5)
            rows = [[rand_fraction(rng, 4) for _ in range(size)] for _ in range(size)]
            if rng.random() < 0.3 and size > 1:
                rows[-1] = rows[0][:]  # force singularity sometimes
            matrix = ExactMatrix.from_rows(rows)
            assert matrix.det() == oracles.det_cofactor(matrix)

    def test_int_determinant_stays_exact(self):
        """Bareiss on int entries divides exactly: a float quotient would
        round this determinant to 9.999999999999999e+39."""
        matrix = ExactMatrix.from_rows([[10**20 + 1, 3, 1], [7, 10**20, 2], [1, 1, 1]])
        det = matrix.det()
        assert type(det) is int
        assert det == oracles.det_cofactor(matrix) == 9999999999999999999799999999999999999990

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 5).flatmap(lambda n: st.lists(
        st.lists(st.integers(-BIG, BIG), min_size=n, max_size=n), min_size=n, max_size=n)))
    @example([[0, 0], [0, 0]])
    @example([[1, 2], [2, 4]])
    @example([[0, 1, 2], [0, 3, 4], [0, 5, 6]])
    def test_big_int_determinant_matches_cofactor(self, rows):
        """An int matrix has an int determinant, a singular one included."""
        matrix = ExactMatrix.from_rows(rows)
        det = matrix.det()
        assert type(det) is int
        assert det == oracles.det_cofactor(matrix)

    def test_cyclotomic_det_inverts_each_pivot_once(self, monkeypatch):
        """An m x m cyclotomic matrix makes at most m-2 scalar inverses (none
        for the first step's divisor 1) and still matches the cofactor
        expansion, zero leading pivots and singular matrices included."""
        calls = []
        inverse = CyclotomicScalar.inverse

        def counting(self):
            calls.append(self)
            return inverse(self)

        monkeypatch.setattr(CyclotomicScalar, "inverse", counting)
        rng = random.Random(7)
        for k in (3, 5, 12):
            for size in range(1, 6):
                rows = [[CyclotomicScalar.from_poly(k, [rand_fraction(rng, 3) for _ in range(3)])
                         for _ in range(size)] for _ in range(size)]
                if size > 1 and rng.random() < 0.5:
                    rows[0][0] = CyclotomicScalar.zero(k)
                if size > 1 and rng.random() < 0.3:
                    rows[-1] = rows[0][:]
                matrix = ExactMatrix.from_rows(rows)
                calls.clear()
                det = matrix.det()
                assert len(calls) <= max(size - 2, 0)
                assert det == oracles.det_cofactor(matrix)

    def test_inverse(self, rng):
        for _ in range(30):
            size = rng.randint(1, 4)
            matrix = rand_invertible(rng, size)
            eye = oracles.matmul(matrix, oracles.inverse(matrix))
            assert eye.entries == oracles.identity(size).entries


square_int_matrices = st.integers(1, 5).flatmap(
    lambda n: st.lists(
        st.lists(st.one_of(st.sampled_from([0, 1, -1]), st.integers(-BIG, BIG)),
                 min_size=n, max_size=n),
        min_size=n, max_size=n,
    )
)


class TestIntegerKernels:
    def test_clear_denominators_examples(self):
        assert clear_denominators((Fraction(1, 2), Fraction(-2, 3), 4)) == ((3, -4, 24), 6)
        assert clear_denominators((Fraction(0), Fraction(5))) == ((0, 5), 1)

    @given(st.lists(rationals, min_size=1, max_size=6))
    def test_clear_denominators_round_trip(self, vec):
        ints, den = clear_denominators(vec)
        assert den >= 1
        assert all(type(x) is int for x in ints)
        assert tuple(Fraction(x, den) for x in ints) == tuple(vec)

    @settings(max_examples=200)
    @given(square_int_matrices)
    def test_fraction_free_inverse_is_scaled_inverse(self, rows):
        """M B = D I with D = +-det B; singular B raises ValueError."""
        n = len(rows)
        det = ExactMatrix.from_rows([[Fraction(x) for x in row] for row in rows]).det()
        if det == 0:
            with pytest.raises(ValueError):
                fraction_free_inverse(rows)
            return
        m = fraction_free_inverse(rows)
        assert all(type(x) is int for row in m for x in row)
        product = [[sum(m[i][k] * rows[k][j] for k in range(n)) for j in range(n)]
                   for i in range(n)]
        scale = product[0][0]
        assert scale in (det, -det)
        assert product == [[scale * (i == j) for j in range(n)] for i in range(n)]

    def test_fraction_free_inverse_pivot_swap(self):
        # det = -30; the swap of the first two rows makes D = 30
        rows = [[0, 2, 1], [3, 0, 0], [0, 0, 5]]
        assert fraction_free_inverse(rows) == [[0, 10, 0], [15, 0, -3], [0, 0, 6]]


class TestMaximalMinors:
    """The Fraction minor scan that the general-position and smoothness
    oracles use, on matrices with known minors."""

    def test_identity_with_ones_column(self):
        matrix = ExactMatrix.from_rows(
            [[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1]]
        )
        assert oracles.all_maximal_minors_nonzero(matrix, 3)

    def test_repeated_column(self):
        matrix = ExactMatrix.from_rows([[1, 2, 1], [3, 4, 3]])
        assert not oracles.all_maximal_minors_nonzero(matrix, 2)

    def test_identity_has_zero_2x2_minors(self):
        assert not oracles.all_maximal_minors_nonzero(oracles.identity(3), 2)


# r to r + 3 integer vectors of one length r in 1..4; small entries (zero
# often) make singular subsets and pivot swaps common
integer_columns = st.integers(1, 4).flatmap(
    lambda r: st.lists(
        st.lists(st.one_of(st.integers(-2, 2), st.integers(-BIG, BIG)), min_size=r, max_size=r),
        min_size=r, max_size=r + 3,
    )
)


class TestIndependenceEngine:
    """``minors``: the signed determinant of every r-subset, in
    ``itertools.combinations`` order; all nonzero iff every r are independent."""

    def test_pivot_swap(self):
        # the first vector has leading entry 0, so the pivot comes from the second
        assert list(minors([(0, 1), (1, 0), (1, 1)])) == [-1, -1, 1]
        assert list(minors([(0, 2, 1), (3, 0, 0), (0, 0, 5)])) == [-30]

    def test_stops_at_first_zero_minor(self):
        assert list(minors([(1, 0), (0, 1), (2, 0)])) == [1, 0, -2]
        sweep = minors([(0, 0, 1), (0, 1, 0), (0, 2, 1), (1, 1, 1)])
        assert not all(sweep)
        assert list(sweep) == [-1, -2, 1]  # all() stopped at the first minor, 0

    @settings(max_examples=300)
    @given(integer_columns)
    @example([[0, 1], [1, 0], [1, 1]])
    def test_signed_minors_match_cofactor(self, columns):
        expected = [oracles.det_cofactor(oracles.from_columns(subset))
                    for subset in itertools.combinations(columns, len(columns[0]))]
        got = list(minors(columns))
        assert got == expected
        assert all(type(m) is int for m in got)
