"""Independent reference implementations the fast library paths are
compared against: cofactor determinants, the Bareiss determinant over the
entries' field (``det``) that the verifier's split-prime singularity proof
replaced, the cofactor adjugate that the
closed-form dual conic replaced, a Fraction Gauss-Jordan inverse,
the Fraction normal form that the integer frame kernel replaced (its
``act`` reorders by ``permutation_inverse``, which the library no longer
needs), the Fraction minor scans that the integer minor engine replaced,
the per-subset Bareiss minors that the depth-first sweep replaced, Phi_k
by division of x^k - 1 that the radical formula replaced, the full S_{n+1}
enumeration that the frame scans replaced, on the integer normal form as
the fraction-free inverse of the frame multiplied out against each other
point (``fraction_free_inverse``, ``frame_normal_form``) before one
elimination of the frame against those points replaced it, the frame
tables as they were read off one fraction-free inverse per basis set
before the minor table replaced it (and their entries grouped into
cross-ratio classes, ``class_values``), the carriers and canon by frame steps
(``carriers_by_frames``, ``canon_by_frames``) that the class scans
replaced, the keyed frame loop per basis set, anchor and b_d
(``anchored``, ``keyed_frame_tables``) that the orbit's zipped key columns
replaced, the integer dual points cleared through ``clear_denominators``
(``integer_duals``) before they were read straight off the ``Fraction``
rows, the subgroup closure
over validated group elements and the freeness scan over its sorted
elements that the coset enumeration replaced, that coset enumeration on
exponent tuples (``coset_closure``) before the sums of the triangular
basis rows replaced it, the lattice-box convolution
that the closed-form section count replaced, and the automorphism verifier
as it was before the coefficient-matrix read-off replaced it: every entry
lifted to one cyclotomic field, a rank check, each monomial entry raised to
the k-th power by k-1 multiplications once per defining form, and a span
test by Gaussian elimination (``rank``, ``solve_linear`` and
``LinearSolveResult``, moved here from the library), the span test on
the coefficient rows of ``equations`` that the integer span conditions
replaced (``in_span``), and the ``Fraction``
cyclotomic field that the integer one replaced (a residue with ``Fraction``
coefficients, inverted by the extended Euclidean algorithm and promoted by
one multiplication per coefficient), and ``projective_normalize`` as it
divided by a ``Fraction`` pivot (``normalize_by_fraction_pivot``) before an
``int`` pivot divided as ``Fraction(x, pivot)``.  Pivot divisions are
exact on ``int`` entries too.  ``submatrix``, ``from_columns``, ``identity``
and ``matmul`` are the matrix helpers the tests need and the library does
not.  Moved here from the library, where no verb used them: the deck
generators phi_j (``generator``, ``canonical_generators``), the deck-group
law (``deck_identity``, ``deck_product``, ``deck_power``, which were
``GroupElement``'s identity, product, power and inverse), ``acts_freely``
on the level-set fixed locus, ``induced_hyperplane_permutation``, the
plurigenus ``leading_coefficient``, the conic references ``is_tangent``
(with the cofactor adjugate) and ``conic_contains``, the canonical
``arrangement_of`` a parameter, and ``random_parameter``, the rejection
sampler whose draws ``kernel_of_R`` repeats.  The action kernel as the
stabilizer intersection over sampled parameters (``kernel_of_R``) that the
normal-subgroup proof replaced.  The three curve constructions
as they were before one cross-ratio helper replaced their derivations:
Kummer's per-entry ``ratio`` (``kummer_by_ratio``), the line restriction's
closed forms in rho and each table row (``restrict_by_closed_forms``), and
the conic's pencil projection with a Moebius map
(``conic_by_pencil_projection``); ``outcome`` compares two of them with
errors included."""

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from gfermat.arrangement import (
    Arrangement,
    Hyperplane,
    StandardParameter,
    _integer_duals,
    is_standard_parameter,
)
from gfermat.constructions import ConicCurveResult, LineRestriction, _cross, tangent_conic
from gfermat.errors import DEFAULT_BUDGET, BudgetExceeded, NotInGeneralPosition, TangencyError
from gfermat.exactfield import CyclotomicScalar, ExactMatrix, cyclotomic_polynomial
from gfermat.fermatgroup import (
    FixedComponent,
    FixedLocusReport,
    FreeActionResult,
    GroupElement,
    equations,
)
from gfermat.modaction import (
    Permutation,
    _check_scan,
    _columns,
    _key_shift,
    _keyed,
    _one_line,
    _slots,
)
from gfermat.rational import clear_denominators, projective_normalize, rational_to_string


def _divide(x, y):
    """x / y, as a Fraction when both are ``int`` (where ``/`` would round)."""
    return Fraction(x, y) if type(x) is int and type(y) is int else x / y


def normalize_by_fraction_pivot(vec) -> tuple:
    """The vector over its first nonzero entry, that pivot made a
    ``Fraction`` first when it is an ``int``."""
    vec = tuple(vec)
    for entry in vec:
        if entry != 0:
            if type(entry) is int:
                entry = Fraction(entry)
            return tuple(x / entry for x in vec)
    raise ValueError("cannot normalize the zero vector")


def submatrix(matrix: ExactMatrix, row_idx, col_idx) -> ExactMatrix:
    return ExactMatrix.from_rows([[matrix.entry(i, j) for j in col_idx] for i in row_idx])


def from_columns(cols) -> ExactMatrix:
    return ExactMatrix.from_rows(zip(*[tuple(c) for c in cols]))


def identity(n: int) -> ExactMatrix:
    return ExactMatrix.from_rows([[Fraction(int(i == j)) for j in range(n)] for i in range(n)])


def matmul(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    if a.cols != b.rows:
        raise ValueError("inner dimensions do not match")
    return ExactMatrix.from_rows(
        [[sum(a.entry(i, t) * b.entry(t, j) for t in range(a.cols)) for j in range(b.cols)]
         for i in range(a.rows)])


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return out


def _poly_rem(poly, mod):
    """Remainder of poly by the monic polynomial ``mod`` (Fraction coeffs)."""
    rem = [Fraction(c) for c in poly]
    deg_mod = len(mod) - 1
    for shift in range(len(rem) - len(mod), -1, -1):
        coeff = rem[shift + deg_mod]
        if coeff:
            for i in range(len(mod)):
                rem[shift + i] -= coeff * mod[i]
    del rem[deg_mod:]
    return rem


def _poly_divmod_int(num, den):
    """Exact division of integer polynomials (dense ascending tuples)."""
    num = list(num)
    q = [0] * (len(num) - len(den) + 1)
    for shift in range(len(num) - len(den), -1, -1):
        coeff, rem = divmod(num[shift + len(den) - 1], den[-1])
        if rem:
            raise ValueError("non-exact polynomial division")
        q[shift] = coeff
        for i, c in enumerate(den):
            num[shift + i] -= coeff * c
    if any(num):
        raise ValueError("non-exact polynomial division")
    return tuple(q)


@lru_cache(maxsize=None)
def cyclotomic_by_division(k: int) -> tuple[int, ...]:
    """Phi_k by exact division of x^k - 1 by Phi_e for every proper divisor
    e of k, so that prod_{e | k} Phi_e = x^k - 1."""
    poly = tuple([-1] + [0] * (k - 1) + [1])  # x^k - 1
    for e in range(1, k):
        if k % e == 0:
            poly = _poly_divmod_int(poly, cyclotomic_by_division(e))
    return poly


@dataclass(frozen=True)
class FractionCyclotomic:
    """Element of Q(zeta_k), stored as a residue modulo Phi_k with
    ``Fraction`` coefficients; ``coeffs`` always has length deg(Phi_k)."""

    order: int
    coeffs: tuple

    @staticmethod
    def _modulus(k):
        return [Fraction(c) for c in cyclotomic_polynomial(k)]

    @classmethod
    def from_poly(cls, k: int, coeffs):
        rem = _poly_rem([Fraction(c) for c in coeffs], cls._modulus(k))
        deg = len(cyclotomic_polynomial(k)) - 1
        rem += [Fraction(0)] * (deg - len(rem))
        return cls(k, tuple(rem))

    @classmethod
    def from_rational(cls, k: int, value):
        return cls.from_poly(k, [Fraction(value)])

    @classmethod
    def zero(cls, k: int):
        return cls.from_rational(k, 0)

    @classmethod
    def one(cls, k: int):
        return cls.from_rational(k, 1)

    @classmethod
    def zeta(cls, k: int, power: int = 1):
        return cls.from_poly(k, [Fraction(0)] * (power % k) + [Fraction(1)])

    def _coerce(self, other):
        if isinstance(other, FractionCyclotomic):
            if other.order != self.order:
                raise ValueError("cyclotomic orders differ")
            return other
        if isinstance(other, (int, Fraction)):
            return FractionCyclotomic.from_rational(self.order, other)
        return None

    def __bool__(self):
        return any(self.coeffs)

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return FractionCyclotomic(
            self.order, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return FractionCyclotomic(self.order, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return FractionCyclotomic.from_poly(self.order, _poly_mul(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def inverse(self):
        """Inverse modulo Phi_k via the extended Euclidean algorithm."""
        if not self:
            raise ZeroDivisionError("cyclotomic scalar is zero")
        r0, r1 = self._modulus(self.order), list(self.coeffs)
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while any(r1):
            while r1 and not r1[-1]:
                r1.pop()
            if len(r1) == 1:
                return FractionCyclotomic.from_poly(self.order, [c / r1[0] for c in s1])
            q = [Fraction(0)] * (len(r0) - len(r1) + 1)
            rem = list(r0)
            for shift in range(len(rem) - len(r1), -1, -1):
                c = rem[shift + len(r1) - 1] / r1[-1]
                q[shift] = c
                for i, rc in enumerate(r1):
                    rem[shift + i] -= c * rc
            del rem[len(r1) - 1:]
            r0, r1 = r1, rem
            new_s = [Fraction(0)] * max(len(s0), len(q) + len(s1) - 1)
            for i, c in enumerate(s0):
                new_s[i] += c
            for i, c in enumerate(_poly_mul(q, s1)):
                new_s[i] -= c
            s0, s1 = s1, new_s
        raise ZeroDivisionError("cyclotomic scalar is zero modulo Phi_k")

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = FractionCyclotomic.from_rational(self.order, other)
        if not isinstance(other, FractionCyclotomic):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def promote(self, order: int):
        """zeta_k = zeta_order^(order/k), one product per coefficient."""
        if order == self.order:
            return self
        if order % self.order:
            raise ValueError("can only promote to a multiple of the order")
        step = FractionCyclotomic.zeta(order, order // self.order)
        acc = FractionCyclotomic.zero(order)
        power = FractionCyclotomic.one(order)
        for c in self.coeffs:
            acc = acc + power * c
            power = power * step
        return acc

    def to_json(self):
        return {"k": self.order, "coeffs": [rational_to_string(c) for c in self.coeffs]}


def _zero_like(sample):
    """The zero of ``sample``'s own type: ``int``, ``Fraction`` or cyclotomic."""
    return sample * 0


def matvec(matrix: ExactMatrix, vec) -> tuple:
    """The product of ``matrix`` and the column ``vec``, each entry a sum
    started from the zero of the row's first entry's type
    (``ExactMatrix.matvec`` before the library stopped using it)."""
    vec = tuple(vec)
    if len(vec) != matrix.cols:
        raise ValueError("vector length does not match matrix width")
    return tuple(
        sum((matrix.entry(i, j) * vec[j] for j in range(matrix.cols)),
            start=Fraction(0) * matrix.entry(i, 0))
        for i in range(matrix.rows)
    )


def det(matrix: ExactMatrix):
    """Determinant by fraction-free (Bareiss) elimination over the entries'
    field, the exact determinant the verifier took before split primes
    decided singularity.

    Each division is exact: the quotient is a minor of the matrix.  When
    both operands are ``int`` every entry of that minor is, so ``//`` keeps
    the result an exact ``int``; otherwise the step multiplies by the
    pivot's inverse, taken once per step."""
    if matrix.rows != matrix.cols:
        raise ValueError("determinant of a non-square matrix")
    n = matrix.rows
    a = matrix.row_list()
    sign = 1
    prev = 1
    for i in range(n - 1):
        if a[i][i] == 0:
            for r in range(i + 1, n):
                if a[r][i] != 0:
                    a[i], a[r] = a[r], a[i]
                    sign = -sign
                    break
            else:
                return _zero_like(matrix.entries[0])
        whole = type(prev) is int
        inv = Fraction(1, prev) if whole else 1 / prev
        for r in range(i + 1, n):
            for c in range(i + 1, n):
                x = a[r][c] * a[i][i] - a[r][i] * a[i][c]
                a[r][c] = x // prev if whole and type(x) is int else x * inv
            a[r][i] = 0
        prev = a[i][i]
    return a[n - 1][n - 1] if sign > 0 else -a[n - 1][n - 1]


def det_cofactor(matrix: ExactMatrix):
    """Determinant by cofactor expansion along the first row."""
    if matrix.rows != matrix.cols:
        raise ValueError("determinant of a non-square matrix")
    if matrix.rows == 1:
        return matrix.entry(0, 0)
    total = 0
    for j in range(matrix.cols):
        pivot = matrix.entry(0, j)
        if pivot == 0:
            continue
        sub = submatrix(matrix, range(1, matrix.rows),
                        [c for c in range(matrix.cols) if c != j])
        term = pivot * det_cofactor(sub)
        total = total + term if j % 2 == 0 else total - term
    return total


def adjugate_cofactor(matrix: ExactMatrix) -> ExactMatrix:
    """Transpose of the cofactor matrix, each cofactor a ``det_cofactor``
    of a minor; M adj(M) = det(M) I."""
    n = matrix.rows
    return ExactMatrix.from_rows(
        [[(-1) ** (i + j) * det_cofactor(submatrix(matrix, [r for r in range(n) if r != j],
                                                   [c for c in range(n) if c != i]))
          for j in range(n)] for i in range(n)])


def _quadratic_form(matrix: ExactMatrix, vec) -> Fraction:
    return sum(a * b for a, b in zip(vec, matvec(matrix, vec)))


def conic_contains(conic, point) -> bool:
    """Incidence: p . Q . p = 0."""
    return _quadratic_form(conic.matrix(), tuple(Fraction(c) for c in point)) == 0


def is_tangent(rho, conic) -> bool:
    """Dual-conic tangency, rho . adj(Q) . rho = 0, with the cofactor
    adjugate."""
    rho = tuple(Fraction(c) for c in rho)
    if len(rho) != 3:
        raise ValueError("the line needs a dual point in P^2")
    if not any(rho):
        raise ValueError("the zero vector is not a line")
    return _quadratic_form(adjugate_cofactor(conic.matrix()), rho) == 0


def outcome(fn, *args, **kwargs):
    """A call's report JSON and value, or the type and text of what it
    raised, so two implementations compare errors included."""
    try:
        result = fn(*args, **kwargs)
    except Exception as exc:  # any exception is an outcome to compare
        return ("raised", type(exc), str(exc))
    return ("value", json.dumps(result.to_json()), result)


def kummer_by_ratio(alphas) -> StandardParameter:
    """``kummer_parameters`` with each entry from a local ratio of branch
    values, as before the one cross-ratio helper replaced it."""
    a = tuple(Fraction(x) for x in alphas)
    if len(a) != 6:
        raise ValueError("need six branch values")
    if len(set(a)) != 6:
        raise ValueError("branch values must be pairwise distinct")
    a1, a2, a3, a4, a5, a6 = a

    def ratio(top, tangent):
        return ((top - a4) * (a3 - tangent)) / ((top - tangent) * (a3 - a4))

    rows = (
        (ratio(a1, a5), ratio(a2, a5)),
        (ratio(a1, a6), ratio(a2, a6)),
    )
    par = StandardParameter(2, 5, rows)
    if not is_standard_parameter(par):
        raise ValueError("branch values produce a degenerate line collection")
    return par


def restrict_by_closed_forms(par: StandardParameter, rho, *, allow_singular: bool = False):
    """``restrict_to_line`` with the curve parameter from closed forms in
    rho = (r1, r2, r3) and each row (lambda, mu), as before the one
    cross-ratio helper replaced them."""
    if par.d != 2:
        raise ValueError("line restriction starts from a surface parameter (d = 2)")
    if not is_standard_parameter(par):
        raise ValueError("parameter is not in X_{n,2}")
    rho = projective_normalize(tuple(Fraction(c) for c in rho))
    if len(rho) != 3:
        raise ValueError("the line needs a dual point in P^2")
    duals = _integer_duals(par)
    general = is_general_position(duals + [rho], 2)
    if not general and not allow_singular:
        raise NotInGeneralPosition(
            "the line is not in general position with the branch lines"
        )
    r1, r2, r3 = rho
    try:
        values = [r2 * (r3 - r1) / (r1 * (r3 - r2))]
        for lam, mu in par.rows:
            values.append(r2 * (lam * r3 - r1) / (r1 * (mu * r3 - r2)))
    except ZeroDivisionError as exc:
        raise NotInGeneralPosition(
            "restriction formulas degenerate for this line"
        ) from exc
    eta = StandardParameter(1, par.n, tuple((v,) for v in values))
    points = tuple(projective_normalize(_cross(rho, q)) for q in duals)
    return LineRestriction(eta, points, not general)


def conic_by_pencil_projection(a, par: StandardParameter, anchors=(1, 2, 3)):
    """``conic_curve_parameters`` with the conic identified with P^1 by the
    pencil of lines through the first anchor point, each line projected to
    two coordinates by dropping the center's pivot, and a Moebius map of
    2x2 brackets, as before the one cross-ratio helper replaced it."""
    if par.d != 2:
        raise ValueError("conic restriction starts from a surface parameter (d = 2)")
    if not is_standard_parameter(par):
        raise ValueError("parameter is not in X_{n,2}")
    conic = tangent_conic(a)
    adj = conic.dual_matrix()
    duals = _integer_duals(par)
    for j, q in enumerate(duals, start=1):
        if sum(a * b for a, b in zip(q, matvec(adj, q))):
            raise TangencyError(j)
    poles = [projective_normalize(matvec(adj, q)) for q in duals]
    if len(set(poles)) != len(poles):
        raise ValueError("tangency points are not distinct")
    anchors = tuple(anchors)
    if len(set(anchors)) != 3 or not all(type(i) is int and 1 <= i <= par.n + 1 for i in anchors):
        raise ValueError("anchors must be three distinct 1-based indices")
    center = poles[anchors[0] - 1]
    qmatrix = conic.matrix()

    def pencil_line(point):
        if point == center:
            return matvec(qmatrix, center)  # tangent line at the center
        return _cross(center, point)

    pivot = next(i for i, c in enumerate(center) if c != 0)
    others = [i for i in range(3) if i != pivot]

    def bracket(p, q):
        return p[0] * q[1] - p[1] * q[0]

    coords = [tuple(pencil_line(p)[i] for i in others) for p in poles]
    z_inf, z_zero, z_one = (coords[i - 1] for i in anchors)

    def moebius(z):
        num = bracket(z, z_zero) * bracket(z_one, z_inf)
        den = bracket(z, z_inf) * bracket(z_one, z_zero)
        return num / den

    values = [moebius(coords[j]) for j in range(par.n + 1) if (j + 1) not in anchors]
    eta = StandardParameter(1, par.n, tuple((v,) for v in values))
    return ConicCurveResult(eta, tuple(poles), anchors)


def inverse(matrix: ExactMatrix) -> ExactMatrix:
    """Inverse by Gauss-Jordan elimination over Fraction."""
    if matrix.rows != matrix.cols:
        raise ValueError("inverse of a non-square matrix")
    n = matrix.rows
    a = [list(matrix.row(i)) + [Fraction(int(i == j)) for j in range(n)]
         for i in range(n)]
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot_row is None:
            raise ValueError("matrix is singular")
        a[col], a[pivot_row] = a[pivot_row], a[col]
        pivot = a[col][col]
        a[col] = [_divide(x, pivot) for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                factor = a[r][col]
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    return ExactMatrix.from_rows([row[n:] for row in a])


def normalize(arr: Arrangement):
    """(T, parameter) over Fraction, without the general-position check:
    T = diag(1 / B^{-1} a) B^{-1} for the frame B and anchor a."""
    d = arr.d
    duals = arr.duals
    base_inv = inverse(from_columns(duals[: d + 1]))
    anchor = matvec(base_inv, duals[d + 1])
    transform = ExactMatrix.from_rows(
        [[e / a for e in base_inv.row(i)] for i, a in enumerate(anchor)]
    )
    rows = []
    for q in duals[d + 2:]:
        image = matvec(transform, q)
        last = image[d]
        rows.append(tuple(image[j] / last for j in range(d)))
    return transform, StandardParameter(d, arr.n, tuple(rows))


def permutation_inverse(eta: Permutation) -> Permutation:
    """The inverse permutation (``Permutation.inverse`` before the library
    stopped using it)."""
    images = [0] * len(eta.images)
    for i, j in enumerate(eta.images):
        images[j] = i
    return Permutation(tuple(images))


def act(eta, par: StandardParameter) -> StandardParameter:
    """Reorder the canonical arrangement of par by eta (hyperplane i to
    slot eta(i)) and renormalize with the Fraction reference."""
    d = par.d
    duals = [tuple(Fraction(int(i == j)) for i in range(d + 1)) for j in range(d + 1)]
    duals.append((Fraction(1),) * (d + 1))
    duals.extend(tuple(row) + (Fraction(1),) for row in par.rows)
    inv = permutation_inverse(eta)
    reordered = tuple(duals[inv.images[j]] for j in range(par.n + 1))
    return normalize(Arrangement(d, reordered))[1]


def minors_per_subset(columns):
    """The signed determinant of every r of the integer vectors ``columns``
    in ``itertools.combinations`` order, one fraction-free Bareiss
    elimination per subset.  A pivot from place k is a sign (-1)^k; a zero
    pivot column gives 0."""
    for subset in itertools.combinations(columns, len(columns[0])):
        vecs, prev, sign = list(subset), 1, 1
        while vecs and prev:
            k = 0 if vecs[0][0] else next((i for i, v in enumerate(vecs) if v[0]), 0)
            p = vecs.pop(k)
            vecs = [[(p[0] * x - v[0] * y) // prev for x, y in zip(v[1:], p[1:])] for v in vecs]
            prev, sign = p[0], -sign if k % 2 else sign
        yield sign * prev


def all_maximal_minors_nonzero(matrix: ExactMatrix, s: int) -> bool:
    """Every s-by-s minor nonzero: one Fraction Bareiss determinant per row
    subset and column subset, with no clearing of denominators."""
    return all(
        det(submatrix(matrix, rows, cols)) != 0
        for rows in itertools.combinations(range(matrix.rows), s)
        for cols in itertools.combinations(range(matrix.cols), s)
    )


def is_general_position(points, d: int) -> bool:
    """Every d+1 of the (nonzero, length d+1) dual points independent: each
    (d+1)-minor of the Fraction dual matrix, one determinant at a time."""
    columns = [tuple(Fraction(c) for c in p) for p in points]
    return all_maximal_minors_nonzero(from_columns(columns), d + 1)


def smoothness_by_minors(system) -> bool:
    """Every maximal (n-d)-minor of the coefficient matrix itself nonzero,
    with no Gale duality."""
    matrix = system.coefficient_matrix
    return all_maximal_minors_nonzero(matrix, matrix.rows)


def fraction_free_inverse(rows) -> list[list[int]]:
    """D B^{-1}, D = +-det B, for a square integer matrix B by fraction-free
    Gauss-Jordan elimination on [B | I] (Bareiss 1968): entries stay minors
    of [B | I], so each ``//`` is exact.  Raises ValueError if B is singular."""
    n = len(rows)
    a = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    prev = 1
    for k in range(n):
        swap = next((r for r in range(k, n) if a[r][k]), None)
        if swap is None:
            raise ValueError("matrix is singular")
        a[k], a[swap] = a[swap], a[k]
        p = a[k]
        a = [row if row is p else [(p[k] * x - row[k] * y) // prev for x, y in zip(row, p)]
             for row in a]
        prev = p[k]
    return [row[n:] for row in a]


def frame_normal_form(points, d: int):
    """(M, M a, table rows) for integer dual points, M = D B^{-1} for the
    frame B and a the anchor: the frame inverted, then multiplied out
    against each other point, as before one elimination of the frame
    against the other points replaced it."""
    m = fraction_free_inverse(list(zip(*points[: d + 1])))
    anchor, *images = [[sum(x * y for x, y in zip(row, q)) for row in m] for q in points[d + 1:]]
    if not all(anchor):
        raise ZeroDivisionError("the (d+2)-nd dual point lies on a frame hyperplane")
    rows = tuple(tuple(Fraction(b[j] * anchor[d], anchor[j] * b[d]) for j in range(d))
                 for b in images)
    return m, anchor, rows


def act_rows(par: StandardParameter, orders=None):
    """(images, act rows) per one-line tuple (hyperplane i to slot images[i]),
    over all of S_{n+1} in itertools order unless ``orders`` is given: one
    reference ``frame_normal_form`` per permutation."""
    points = _integer_duals(par)
    for images in itertools.permutations(range(par.n + 1)) if orders is None else orders:
        slots = sorted(range(len(images)), key=images.__getitem__)
        yield images, frame_normal_form([points[i] for i in slots], par.d)[2]


def scans(par: StandardParameter, targets=()):
    """(sorted distinct tables, stabilizer images, {target table: images of
    the first permutation carrying par to it, or None}) from one pass over
    S_{n+1} in itertools (lexicographic) order."""
    seen, stabilizer, witnesses = set(), [], dict.fromkeys(targets)
    for images, rows in act_rows(par):
        seen.add(rows)
        if rows == par.rows:
            stabilizer.append(images)
        if rows in witnesses and witnesses[rows] is None:
            witnesses[rows] = images
    return sorted(seen), tuple(stabilizer), witnesses


def anchored(par: StandardParameter, minor_table):
    """(head, last, a, ca, others) per basis set S, anchor a outside S and
    last basis element b_d = last, with head = S - {last}: the coordinates
    ca = {b: C[b][a]} of the anchor and the pairs (q, {b: C[b][q]}) of every
    other hyperplane q outside S, read once per basis set."""
    hyperplanes = range(par.n + 1)
    for basis in itertools.combinations(hyperplanes, par.d + 1):
        mask = sum(1 << b for b in basis)
        coords = _columns(minor_table, basis, mask, [q for q in hyperplanes if not mask >> q & 1])
        for a, ca in coords.items():
            others = [(q, c) for q, c in coords.items() if q != a]
            for last in basis:
                yield [b for b in basis if b != last], last, a, ca, others


def keyed_frame_tables(par: StandardParameter, minor_table, shift: int, pairs: dict):
    """(frame, {hyperplane: row}) for every ordered frame (b_0, ..., b_d, a)
    of par's canonical arrangement, with the row of every hyperplane outside
    it read off the minor table as keys, built once per basis set, anchor
    and b_d; pairs records one (num, den) per key."""
    for head, last, a, ca, others in anchored(par, minor_table):
        entries = {q: _keyed(c, ca, head, last, shift, pairs) for q, c in others}
        for order in itertools.permutations(head):
            yield order + (last, a), {q: tuple(map(e.__getitem__, order))
                                      for q, e in entries.items()}


def frame_tables(par: StandardParameter):
    """(frame, {hyperplane: row}) per ordered frame (b_0, ..., b_d, a), in the
    order ``keyed_frame_tables`` yields them, each entry the
    ``Fraction`` C[b_j][q] C[b_d][a] / (C[b_j][a] C[b_d][q]) that the
    library keys as an integer: from the coordinates C[b][q] = (M q)_b with
    M = D B^{-1} for each basis set B, one fraction-free inverse and one
    matrix-vector product per dual point, and no minor table."""
    d, points = par.d, _integer_duals(par)
    for basis in itertools.combinations(range(par.n + 1), d + 1):
        m = fraction_free_inverse(list(zip(*(points[i] for i in basis))))
        coords = {q: dict(zip(basis, [sum(x * y for x, y in zip(row, p)) for row in m]))
                  for q, p in enumerate(points) if q not in basis}
        for a, ca in coords.items():
            for last in basis:
                head = [b for b in basis if b != last]
                entries = {q: {b: Fraction(c[b] * ca[last], ca[b] * c[last]) for b in head}
                           for q, c in coords.items() if q != a}
                for order in itertools.permutations(head):
                    yield order + (last, a), {q: tuple(e[b] for b in order)
                                              for q, e in entries.items()}


def carriers_by_frames(par: StandardParameter, target: StandardParameter):
    """The sorted one-line images of every permutation carrying par to
    target, by the early exit that the cross-ratio classes replaced: per
    basis set, anchor and b_d the row of the first other hyperplane is keyed
    first, each target row with the same entries fixes one head order, and
    only those frames have their other rows built."""
    minor_table = _check_scan(par, DEFAULT_BUDGET)
    shift, pairs = _key_shift(minor_table, target.rows), {}
    slots, by_entries, found = _slots(target, shift), {}, []
    for row in slots:
        by_entries.setdefault(tuple(sorted(row)), []).append(row)
    for head, last, a, ca, others in anchored(par, minor_table):
        if others:
            first = {x: b for b, x in _keyed(others[0][1], ca, head, last, shift, pairs).items()}
            orders = [[first[x] for x in row] for row in by_entries.get(tuple(sorted(first)), ())]
        else:  # n = d+1: the empty table, fixed by every frame
            orders = itertools.permutations(head)
        for order in orders:
            slotted = {}
            for q, c in others:
                j = slotted[q] = slots.get(tuple(_keyed(c, ca, order, last, shift, pairs).values()))
                if j is None:
                    break
            else:
                found.append(_one_line((*order, last, a), slotted))
    return sorted(found)


def canon_by_frames(par: StandardParameter):
    """The rows of the least orbit element by the per-(basis set, anchor,
    b_d) loop that the cross-ratio classes replaced: every other
    hyperplane's row is keyed, and each q reaching the least sorted row
    fixes the head order of the one frame whose table is sorted in full."""
    minor_table = _check_scan(par, DEFAULT_BUDGET)
    if not par.rows:
        return par.rows
    shift, pairs = _key_shift(minor_table), {}
    least, ties = None, []
    for head, last, a, ca, others in anchored(par, minor_table):
        rows = [_keyed(c, ca, head, last, shift, pairs) for _, c in others]
        for e in rows:
            low = sorted(e.values())
            if least is None or low < least:
                least, ties = low, []
            if low == least:
                order = sorted(head, key=e.__getitem__)
                ties.append(sorted(tuple(map(f.__getitem__, order)) for f in rows))
    return tuple(tuple(Fraction(*pairs[x]) for x in row) for row in min(ties))


def class_values(par: StandardParameter):
    """{(R, W): {ordering (b, b_d, a, q) of W: entry}} over every frame of
    ``frame_tables``, R = S - {b, b_d} for the frame's basis set S."""
    classes = {}
    for frame, rows in frame_tables(par):
        *head, last, a = frame
        for q, row in rows.items():
            for b, x in zip(head, row):
                rest = tuple(sorted(set(frame[:-1]) - {b, last}))
                classes.setdefault((rest, tuple(sorted((b, last, a, q)))), {})[b, last, a, q] = x
    return classes


def integer_duals(par: StandardParameter) -> list[tuple[int, ...]]:
    """Dual points of par's canonical arrangement, each cleared to integers."""
    d = par.d
    frame = [tuple(int(i == j) for i in range(d + 1)) for j in range(d + 1)] + [(1,) * (d + 1)]
    return frame + [clear_denominators(row + (1,))[0] for row in par.rows]


def arrangement_of(par: StandardParameter) -> Arrangement:
    """The canonical ordered arrangement attached to a parameter table."""
    return Arrangement(par.d, tuple(Hyperplane(q) for q in _integer_duals(par)))


def random_parameter(d: int, n: int, rng, bound: int = 9) -> StandardParameter:
    """Rejection-sample a parameter table uniformly from small rationals."""

    def draw():
        num = rng.randint(-bound, bound)
        den = rng.randint(1, bound)
        return Fraction(num, den)

    while True:
        rows = tuple(
            tuple(draw() for _ in range(d)) for _ in range(n - d - 1)
        )
        candidate = StandardParameter(d, n, rows)
        if is_standard_parameter(candidate):
            return candidate


def kernel_of_R(n: int, d: int, samples: int, rng):
    """The images of the permutations left after filtering all of S_{n+1} by
    the stabilizers of up to ``samples`` random parameters, stopping once one
    is left: the sampled search that the normal-subgroup proof replaced.  It
    concludes only when exactly one candidate survives."""
    candidates = list(itertools.permutations(range(n + 1)))
    for _ in range(samples):
        par = random_parameter(d, n, rng)
        candidates = [images for images, rows in act_rows(par, candidates) if rows == par.rows]
        if len(candidates) == 1:
            break
    return candidates


def generator(k: int, n: int, j: int) -> GroupElement:
    """phi_j (1-based j), the multiplier of the j-th coordinate."""
    if not 1 <= j <= n + 1:
        raise ValueError("generator index out of range")
    return GroupElement(k, tuple(int(i == j) for i in range(1, n + 2)))


def canonical_generators(k: int, n: int) -> tuple[GroupElement, ...]:
    """The n+1 order-k multipliers phi_1, ..., phi_{n+1}; their product is 1."""
    if k < 2 or n < 2:
        raise ValueError("need k >= 2 and n >= 2")
    return tuple(generator(k, n, j) for j in range(1, n + 2))


def deck_identity(k: int, n: int) -> GroupElement:
    return GroupElement(k, (0,) * (n + 1))


def deck_product(g: GroupElement, h: GroupElement) -> GroupElement:
    """The deck-group product: exponent vectors add mod k."""
    if g.k != h.k or g.n != h.n:
        raise ValueError("group elements live in different groups")
    return GroupElement(g.k, tuple(a + b for a, b in zip(g.exponents, h.exponents)))


def deck_power(g: GroupElement, exponent: int) -> GroupElement:
    """g to the given power; the power -1 is the inverse."""
    return GroupElement(g.k, tuple(m * exponent for m in g.exponents))


def subgroup_closure(generators, k: int, n: int, budget: int):
    """Breadth-first closure over validated group elements."""
    elements = {deck_identity(k, n)}
    frontier = list(elements)
    while frontier:
        new_frontier = []
        for g in generators:
            for h in frontier:
                prod = deck_product(g, h)
                if prod not in elements:
                    elements.add(prod)
                    new_frontier.append(prod)
                    if len(elements) > budget:
                        raise BudgetExceeded(len(elements), budget)
        frontier = new_frontier
    return elements


def coset_closure(generators, k: int, n: int, budget: int) -> list:
    """The coset enumeration on canonical exponent tuples, in the order the
    library formed them before it formed the sums of the triangular basis
    rows: identity first, then for each generator g outside the group H
    built so far the cosets H+g, H+2g, ... until a multiple of g falls back
    into H; a coset that would pass the budget is refused before it is built."""
    elements = [(0,) * (n + 1)]
    members = set(elements)
    for g in generators:
        g = g.exponents
        coset = elements[:]
        while (first := tuple([(a + b) % k for a, b in zip(coset[0], g)])) not in members:
            if len(elements) + len(coset) > budget:
                raise BudgetExceeded(budget + 1, budget)
            coset = [first] + [tuple([(a + b) % k for a, b in zip(h, g)]) for h in coset[1:]]
            elements += coset
            members.update(coset)
    return elements


def fixed_locus_by_level_sets(element: GroupElement, gfm_type) -> FixedLocusReport:
    """Every level set of the canonical exponents, grouped in one dict and
    scanned in level order; a set of at least n+1-d coordinates is a
    component."""
    d, k, n = gfm_type.d, gfm_type.k, gfm_type.n
    if element.k != k or element.n != n:
        raise ValueError("element does not match the type")
    level_sets: dict[int, list[int]] = {}
    for j, m in enumerate(element.exponents, start=1):
        level_sets.setdefault(m, []).append(j)
    components = []
    for level, indices in sorted(level_sets.items()):
        size = len(indices)
        if size >= n + 1 - d:
            dimension = size + d - n - 1
            count = k ** (size - 1) if dimension == 0 else None
            components.append(
                FixedComponent(level, tuple(indices), dimension, dimension, size - 1, count))
    return FixedLocusReport(element, gfm_type, tuple(components))


def acts_freely(element: GroupElement, gfm_type) -> bool:
    """No level set reaches n+1-d coordinates: the level-set fixed locus is
    empty."""
    return not fixed_locus_by_level_sets(element, gfm_type).components


def subgroup_acts_freely(generators, gfm_type, budget: int) -> FreeActionResult:
    """Breadth-first closure over validated group elements, sorted by
    exponents; the first nontrivial element with a nonempty level-set fixed
    locus is the offending one."""
    elements = subgroup_closure(generators, gfm_type.k, gfm_type.n, budget)
    for element in sorted(elements, key=lambda g: g.exponents):
        if any(element.exponents) and fixed_locus_by_level_sets(element, gfm_type).components:
            return FreeActionResult(False, element, len(elements))
    return FreeActionResult(True, None, len(elements))


@lru_cache(maxsize=None)
def _box_sum_counts(k: int, boxes: int) -> tuple[int, ...]:
    """Number of tuples in {0..k-1}^boxes with each coordinate sum: the
    coefficient list of (1 + t + ... + t^{k-1})^boxes."""
    counts = [1]
    for _ in range(boxes):
        new = [0] * (len(counts) + k - 1)
        for s, c in enumerate(counts):
            for j in range(k):
                new[s + j] += c
        counts = new
    return tuple(counts)


def h0_box_sum(gfm_type, r: int) -> int:
    """h0(r) = C(r+n, n) for 0 <= r < k, and for r >= k the sum over the box
    {0..k-1}^{n-d}, grouped by coordinate sum s <= r, of C(r - s + d, d)."""
    d, k, n = gfm_type.d, gfm_type.k, gfm_type.n
    if r < 0:
        return 0
    if r < k:
        return math.comb(r + n, n)
    return sum(
        count * math.comb(r - s + d, d)
        for s, count in enumerate(_box_sum_counts(k, n - d)) if s <= r
    )


def leading_coefficient(gfm_type) -> Fraction:
    """Leading coefficient k^{n-d} r1^d / d! of the plurigenus polynomial,
    r1 = (n-d)k - n - 1.  For m r1 >= max(k, (n-d)(k-1)) the map m -> P_m is
    a degree-d polynomial with this leading coefficient."""
    d, k, n = gfm_type.d, gfm_type.k, gfm_type.n
    r1 = (n - d) * k - n - 1
    if r1 <= 0:
        raise ValueError("leading coefficient requires r1 > 0")
    return Fraction(k ** (n - d) * r1**d, math.factorial(d))


def rank(matrix: ExactMatrix) -> int:
    """Rank by Gauss-Jordan elimination over the entries' field."""
    a = matrix.row_list()
    rank = 0
    for col in range(matrix.cols):
        pivot_row = next((r for r in range(rank, matrix.rows) if a[r][col] != 0), None)
        if pivot_row is None:
            continue
        a[rank], a[pivot_row] = a[pivot_row], a[rank]
        pivot = a[rank][col]
        for r in range(matrix.rows):
            if r != rank and a[r][col] != 0:
                factor = _divide(a[r][col], pivot)
                a[r] = [x - factor * y for x, y in zip(a[r], a[rank])]
        rank += 1
        if rank == matrix.rows:
            break
    return rank


@dataclass(frozen=True)
class LinearSolveResult:
    """Outcome of an exact linear solve.

    ``status`` is one of ``"unique"``, ``"underdetermined"`` or
    ``"inconsistent"``.  For underdetermined systems the reported solution
    sets every free variable to zero.
    """

    status: str
    solution: tuple | None
    rank: int


def solve_linear(matrix: ExactMatrix, rhs) -> LinearSolveResult:
    """Solve ``matrix @ x = rhs`` by exact Gaussian elimination."""
    rhs = tuple(rhs)
    if matrix.rows != len(rhs):
        raise ValueError("right-hand side length does not match row count")
    m, n = matrix.rows, matrix.cols
    a = [list(matrix.row(i)) + [rhs[i]] for i in range(m)]
    pivots = []
    rank = 0
    for col in range(n):
        pivot_row = next((r for r in range(rank, m) if a[r][col] != 0), None)
        if pivot_row is None:
            continue
        a[rank], a[pivot_row] = a[pivot_row], a[rank]
        pivot = a[rank][col]
        a[rank] = [_divide(x, pivot) for x in a[rank]]
        for r in range(m):
            if r != rank and a[r][col] != 0:
                factor = a[r][col]
                a[r] = [x - factor * y for x, y in zip(a[r], a[rank])]
        pivots.append(col)
        rank += 1
        if rank == m:
            break
    for r in range(rank, m):
        if a[r][n] != 0:
            return LinearSolveResult("inconsistent", None, rank)
    zero = _zero_like(matrix.entries[0])
    solution = [zero] * n
    for r, col in enumerate(pivots):
        solution[col] = a[r][n]
    status = "unique" if rank == n else "underdetermined"
    return LinearSolveResult(status, tuple(solution), rank)


def monomial_support(matrix: ExactMatrix):
    """Column index of the unique nonzero entry per row, each entry tested
    by ``bool``, or None when some row or column has none or two."""
    support = []
    for i in range(matrix.rows):
        nonzero = [j for j, x in enumerate(matrix.row(i)) if x]
        if len(nonzero) != 1:
            return None
        support.append(nonzero[0])
    if sorted(support) != list(range(matrix.cols)):
        return None
    return support


def _common_cyclotomic_order(matrix: ExactMatrix, k: int) -> int:
    order = k
    for e in matrix.entries:
        if isinstance(e, CyclotomicScalar):
            order = order * e.order // math.gcd(order, e.order)
    return order


def is_linear_automorphism(matrix: ExactMatrix, par: StandardParameter, k: int) -> bool:
    """The verifier over the common cyclotomic field of k and every entry:
    a rank check, then each monomial entry raised to the k-th power by k-1
    multiplications, again for every one of the n-d defining forms, and a
    Gaussian solve per substituted form against the transposed coefficient
    matrix."""
    if matrix.rows != matrix.cols or matrix.rows != par.n + 1:
        raise ValueError("matrix must be square of size n+1")
    field = _common_cyclotomic_order(matrix, k)
    entries = tuple(
        e.promote(field) if isinstance(e, CyclotomicScalar)
        else CyclotomicScalar.from_rational(field, e)
        for e in matrix.entries
    )
    lifted = ExactMatrix(matrix.rows, matrix.cols, entries)
    if rank(lifted) != lifted.rows:
        raise ValueError("matrix is singular")
    support = monomial_support(lifted)
    if support is None:
        return False
    coeff = equations(par, k).coefficient_matrix
    zero = CyclotomicScalar.zero(field)
    basis_t = ExactMatrix.from_rows(
        [[CyclotomicScalar.from_rational(field, coeff.entry(i, j)) for i in range(coeff.rows)]
         for j in range(coeff.cols)]
    )
    for i in range(coeff.rows):
        transformed = [zero] * coeff.cols
        for r in range(lifted.rows):
            c = support[r]
            scale = lifted.entry(r, c)
            factor = scale
            for _ in range(k - 1):
                factor = factor * scale
            transformed[c] = transformed[c] + factor * coeff.entry(i, r)
        if solve_linear(basis_t, transformed).status == "inconsistent":
            return False
    return True


def in_span(par: StandardParameter, support, powers, p: int = 0) -> bool:
    """The span test on the coefficient rows of ``equations`` that the
    integer span conditions W replaced: whether the monomial substitution
    sending x_r to a_r x_support[r], with ``powers`` the a_r^k, maps each
    form into the span of the forms; modulo p when p is given (every power
    is then a residue).  Columns d+1..n of the coefficient matrix are an
    identity block, so the image v is in the span iff v[c] =
    sum_j v[d+1+j] C[j][c] for every c <= d."""
    coeff = equations(par, 2).coefficient_matrix
    rows = [coeff.row(i) for i in range(coeff.rows)]
    if p:
        rows = [[x.numerator * pow(x.denominator, -1, p) % p for x in row] for row in rows]
    d = par.d
    for row in rows:
        image = [0] * len(row)
        for r, c in enumerate(support):
            if row[r]:
                image[c] = powers[r] * row[r]
        tail = [(rows[j], v) for j, v in enumerate(image[d + 1:]) if v]
        for c in range(d + 1):
            rhs = sum(v * form[c] for form, v in tail)
            if (image[c] - rhs) % p if p else image[c] != rhs:
                return False
    return True


def induced_hyperplane_permutation(matrix: ExactMatrix) -> Permutation:
    """The permutation of branch hyperplanes induced by a monomial matrix:
    it sends the coordinate hyperplane carrying index c(r) to the one
    carrying index r, where c(r) is the column of row r's nonzero entry."""
    support = monomial_support(matrix)
    if support is None:
        raise ValueError("matrix is not monomial")
    images = [0] * matrix.rows
    for r, c in enumerate(support):
        images[c] = r
    return Permutation(tuple(images))
