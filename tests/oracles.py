"""Independent reference implementations the fast library paths are
compared against: cofactor determinants, the cofactor adjugate that the
closed-form dual conic replaced, a Fraction Gauss-Jordan inverse,
the Fraction normal form that the integer frame kernel replaced, the
Fraction minor scans that the integer minor engine replaced, the full
S_{n+1} enumeration that the frame scans replaced, the frame tables as
they were read off one fraction-free inverse per basis set before the
minor table replaced it, the subgroup closure
over validated group elements and the freeness scan over its sorted
elements that the coset enumeration replaced, the lattice-box convolution
that the closed-form section count replaced, and the automorphism verifier
as it was before the coefficient-matrix read-off replaced it: every entry
lifted to one cyclotomic field, a rank check, each monomial entry raised to
the k-th power by k-1 multiplications once per defining form, and a span
test by Gaussian elimination (``rank``, ``solve_linear`` and
``LinearSolveResult``, moved here from the library), and the ``Fraction``
cyclotomic field that the integer one replaced (a residue with ``Fraction``
coefficients, inverted by the extended Euclidean algorithm and promoted by
one multiplication per coefficient).  Pivot divisions are
exact on ``int`` entries too.  ``submatrix``, ``from_columns``, ``identity``
and ``matmul`` are the matrix helpers the tests need and the library does
not."""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from gfermat.arrangement import (
    Arrangement,
    StandardParameter,
    _frame_normal_form,
    _integer_duals,
    random_parameter,
)
from gfermat.errors import BudgetExceeded, Inconclusive
from gfermat.exactfield import CyclotomicScalar, ExactMatrix, _zero_like, cyclotomic_polynomial
from gfermat.fermatgroup import (
    FreeActionResult,
    GroupElement,
    _monomial_support,
    equations,
    fixed_locus,
)
from gfermat.rational import fraction_free_inverse, rational_to_string


def _divide(x, y):
    """x / y, as a Fraction when both are ``int`` (where ``/`` would round)."""
    return Fraction(x, y) if type(x) is int and type(y) is int else x / y


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
    anchor = base_inv.matvec(duals[d + 1])
    transform = ExactMatrix.from_rows(
        [[e / a for e in base_inv.row(i)] for i, a in enumerate(anchor)]
    )
    rows = []
    for q in duals[d + 2:]:
        image = transform.matvec(q)
        last = image[d]
        rows.append(tuple(image[j] / last for j in range(d)))
    return transform, StandardParameter(d, arr.n, tuple(rows))


def act(eta, par: StandardParameter) -> StandardParameter:
    """Reorder the canonical arrangement of par by eta (hyperplane i to
    slot eta(i)) and renormalize with the Fraction reference."""
    d = par.d
    duals = [tuple(Fraction(int(i == j)) for i in range(d + 1)) for j in range(d + 1)]
    duals.append((Fraction(1),) * (d + 1))
    duals.extend(tuple(row) + (Fraction(1),) for row in par.rows)
    inv = eta.inverse()
    reordered = tuple(duals[inv(j)] for j in range(par.n + 1))
    return normalize(Arrangement(d, reordered))[1]


def all_maximal_minors_nonzero(matrix: ExactMatrix, s: int) -> bool:
    """Every s-by-s minor nonzero: one Fraction Bareiss determinant per row
    subset and column subset, with no clearing of denominators."""
    return all(
        submatrix(matrix, rows, cols).det() != 0
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


def act_rows(par: StandardParameter, orders=None):
    """(images, act rows) per one-line tuple (hyperplane i to slot images[i]),
    over all of S_{n+1} in itertools order unless ``orders`` is given: one
    integer normal form per permutation."""
    points = _integer_duals(par)
    for images in itertools.permutations(range(par.n + 1)) if orders is None else orders:
        slots = sorted(range(len(images)), key=images.__getitem__)
        yield images, _frame_normal_form([points[i] for i in slots], par.d)[2]


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


def frame_tables(par: StandardParameter):
    """(frame, {hyperplane: row}) per ordered frame (b_0, ..., b_d, a), as
    ``modaction._frame_tables`` yields them, from the coordinates
    C[b][q] = (M q)_b with M = D B^{-1} for each basis set B: one
    fraction-free inverse and one matrix-vector product per dual point."""
    d, points = par.d, _integer_duals(par)
    for basis in itertools.combinations(range(par.n + 1), d + 1):
        m = fraction_free_inverse(list(zip(*(points[i] for i in basis))))
        coords = {q: dict(zip(basis, [sum(x * y for x, y in zip(row, p)) for row in m]))
                  for q, p in enumerate(points) if q not in basis}
        for a, ca in coords.items():
            for last in basis:
                head = [b for b in basis if b != last]
                entries = {}
                for q, c in coords.items():
                    if q != a:
                        entries[q] = {}
                        for b in head:
                            num, den = c[b] * ca[last], ca[b] * c[last]
                            g = math.gcd(num, den) if den > 0 else -math.gcd(num, den)
                            entries[q][b] = (num // g, den // g)
                for order in itertools.permutations(head):
                    yield order + (last, a), {q: tuple(e[b] for b in order)
                                              for q, e in entries.items()}


def kernel_of_R(n: int, d: int, samples: int, rng):
    """The surviving candidates' images after filtering all of S_{n+1} by up to
    ``samples`` random parameters (Inconclusive if more than one survives)."""
    candidates = list(itertools.permutations(range(n + 1)))
    for _ in range(samples):
        par = random_parameter(d, n, rng)
        candidates = [images for images, rows in act_rows(par, candidates) if rows == par.rows]
        if len(candidates) == 1:
            break
    if len(candidates) > 1:
        raise Inconclusive(f"{len(candidates)} permutations fix all {samples} samples")
    return candidates


def subgroup_closure(generators, k: int, n: int, budget: int):
    """Breadth-first closure over validated group elements."""
    elements = {GroupElement.identity(k, n)}
    frontier = list(elements)
    while frontier:
        new_frontier = []
        for g in generators:
            for h in frontier:
                prod = g * h
                if prod not in elements:
                    elements.add(prod)
                    new_frontier.append(prod)
                    if len(elements) > budget:
                        raise BudgetExceeded(len(elements), budget)
        frontier = new_frontier
    return elements


def subgroup_acts_freely(generators, gfm_type, budget: int) -> FreeActionResult:
    """Breadth-first closure over validated group elements, sorted by
    exponents; the first nontrivial element with a nonempty fixed locus
    is the offending one."""
    elements = subgroup_closure(generators, gfm_type.k, gfm_type.n, budget)
    for element in sorted(elements, key=lambda g: g.exponents):
        if not element.is_identity() and fixed_locus(element, gfm_type).components:
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
    support = _monomial_support(lifted)
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
