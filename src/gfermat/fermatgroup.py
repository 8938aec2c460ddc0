"""The branched-cover variety, its deck group, fixed loci and automorphisms.

For a parameter table in X_{n,d} and a degree k >= 2 the variety is the
complete intersection of n-d degree-k forms in P^n whose coefficient rows
follow the table pattern; the deck group of the projection
[x_1 : ... : x_{n+1}] -> [x_1^k : ... : x_{d+1}^k] is generated by the n+1
coordinate multipliers phi_j (multiply x_j by a primitive k-th root of
unity), subject to the single relation phi_1 ... phi_{n+1} = 1.

Group elements are exponent vectors modulo that diagonal relation and are
stored canonically with last exponent 0; all level-set computations are
taken on the canonical form, over every level 0 <= l <= k-1.  A level set
with a fixed component has at least n+1-d coordinates, so it misses at most
d of them.  When n >= 2d it therefore holds at least d+1 of the first 2d+1
coordinates, a strict majority, so its level is the median of their
exponents, and that one level is counted.  When n < 2d two levels can
qualify; by pigeonhole each holds one of the first d+1 coordinates, and
only their levels are counted.

Free actions start from a triangular basis.  The subgroup H generated by
some elements is L / kZ^n, with L the lattice spanned by kZ^n and the
generators' first n canonical exponents.  Euclid per column (a Hermite
normal form; Cohen, GTM 138, section 2.4) gives pivots h_c dividing k and
|H| = prod k/h_c, so an order past the budget is refused before any
element is formed.  An element has a fixed point exactly when one level
holds at least n+1-d of its coordinates, so the least offender is the
least such nonzero canonical vector in H.  There are at most
k sum_{t<=d} C(n, t) (k-1)^t of these candidates, whatever H is, and each
takes one reduction along the basis; when that costs more than H, the
sums sum_i q_i row_i, 0 <= q_i < k/h_i, are formed and scanned instead,
each element once: two sums differ at the first pivot where the q do.

Both paths pack each canonical exponent vector into one integer:
coordinate j is digit n-j, w bits wide with M = 2^(w-1) >= 2k-1, so
coordinate 0 is the most significant digit and integer order is
lexicographic order.  With ONES holding 1 in every digit and HIGH = M ONES,
a product h + g is reduced digitwise as s - (((s + (M-k) ONES) & HIGH)
>> (w-1)) k: each digit sum is at most 2k-2 < M, adding M-k lifts it to the
high bit exactly when it is >= k and stays below 2M, so neither the sum nor
the correction carries into the next digit.  XOR with l ONES leaves every
digit below M and zero exactly where it was l, and adding (M-1) ONES then
sets the high bit of exactly the nonzero digits, again without a carry.

A monomial matrix sending x_r to a_r x_s(r) maps form i, sum_r C[i][r]
x_r^k, into the span of the forms iff, with b_r = a_r^k,
sum_r b_r C[i][r] ([s(r) = c] - [s(r) > d] C[s(r)-d-1][c]) = 0 for every
c <= d, since columns d+1..n of C are an identity block.  Columns 0..d of
form i are the table's cleared dual point d+1+i over its last entry D_i,
so each equation times M D_i, M the lcm of the D_j, has integer
coefficients: the span conditions W, one row per (i, c) and one column per
r.  They are linear in b, so a scaling of every b_r leaves W b = 0 as it is.

The automorphism verifier works modulo the primes p = 1 + mL above 2^40
that divide no denominator in play (``modp``), with L the lcm of the
entries' cyclotomic orders.  Such a p splits completely in Q(zeta_L), so
sending zeta_L to a primitive L-th root of unity mod p is a ring
homomorphism on those values, and an identity that holds exactly holds
mod p:
- a non-monomial matrix is rejected, or refused as singular, by
  ``modp.is_singular`` alone: a determinant nonzero at one root of Phi_L
  mod p is nonzero, and one that vanishes at every root of enough primes
  is 0 by Hadamard's bound, with no lift to Q(zeta_L);
- a row of W b that is nonzero mod p, with b_r taken as
  pow(a_r mod p, k, p), is nonzero, and the matrix is rejected (p divides
  no D_j, so these are the equations that fail mod p).  This certificate
  is skipped when every entry is +-a_0 times a root of unity, since the
  exact powers then cost nothing.
Rows that all vanish mod p prove nothing, so those matrices (every
accepted one among them) are decided exactly: each row of W b is gathered
into integer coefficients of the powers of zeta_L.
"""

from __future__ import annotations

import math

from .errors import DEFAULT_BUDGET, BudgetExceeded, Frozen
from .invariants import GfmType

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing
if TYPE_CHECKING:
    from fractions import Fraction

    from .arrangement import StandardParameter
    from .exactfield import ExactMatrix

__all__ = [
    "GroupElement",
    "EquationSystem",
    "FixedComponent",
    "FixedLocusReport",
    "FreeActionResult",
    "AutomorphismOrder",
    "LowNClassification",
    "equations",
    "smoothness_certificate",
    "fixed_locus",
    "subgroup_acts_freely",
    "bound_feasible",
    "is_linear_automorphism",
    "automorphism_order",
    "classify_low_n",
]


class GroupElement(Frozen):
    """Element of the deck group as an exponent vector mod k.

    Raw vectors (m_1, ..., m_{n+1}) and (m_1 + c, ..., m_{n+1} + c) name the
    same element; the stored canonical form has last exponent 0, and
    equality and hashing use it.
    """

    __slots__ = ("k", "exponents")

    def __init__(self, k: int, exponents: tuple[int, ...]):
        if k < 2:
            raise ValueError("modulus k must be >= 2")
        exps = tuple(int(m) % k for m in exponents)
        if len(exps) < 2:
            raise ValueError("need at least two exponents")
        shift = exps[-1]
        super().__init__(k, tuple((m - shift) % k for m in exps))

    @property
    def n(self) -> int:
        return len(self.exponents) - 1

    def to_json(self):
        return {"k": self.k, "exponents": list(self.exponents)}


# ---------------------------------------------------------------------------
# Equations and smoothness
# ---------------------------------------------------------------------------

class EquationSystem(Frozen):
    """The n-d degree-k forms cutting out the variety in P^n.

    Form 0 is x_1^k + ... + x_{d+2}^k; form i (i >= 1) is
    l_{i,1} x_1^k + ... + l_{i,d} x_d^k + x_{d+1}^k + x_{d+2+i}^k.
    ``coefficient_matrix`` collects the coefficients of x_1^k, ..., x_{n+1}^k.
    """

    __slots__ = ("d", "n", "k", "table", "coefficient_matrix")

    @classmethod
    def from_table(cls, d: int, n: int, k: int, table) -> EquationSystem:
        from fractions import Fraction

        from .exactfield import ExactMatrix

        if d < 1 or n < d + 1 or k < 2:
            raise ValueError("need d >= 1, n >= d+1, k >= 2")
        table = tuple(tuple(x if type(x) is Fraction else Fraction(x) for x in row)
                      for row in table)
        if len(table) != n - d - 1 or any(len(r) != d for r in table):
            raise ValueError("table must be (n-d-1) x d")
        one, zeros = Fraction(1), (Fraction(0),) * (n - d)  # shared: a Fraction is immutable
        rows = [(one,) * (d + 2) + zeros[1:]]
        for i, lam in enumerate(table):
            row = [*lam, one, *zeros]
            row[d + 2 + i] = one  # coefficient of x_{d+3+i} in 1-based terms
            rows.append(row)
        return cls(d, n, k, table, ExactMatrix.from_rows(rows))

    @property
    def forms(self) -> tuple[tuple[tuple[int, Fraction], ...], ...]:
        """Sparse rows: (1-based variable index, coefficient) of x_j^k terms."""
        out = []
        for i in range(self.coefficient_matrix.rows):
            row = self.coefficient_matrix.row(i)
            out.append(tuple(
                (j + 1, c) for j, c in enumerate(row) if c != 0
            ))
        return tuple(out)

    def polynomial_text(self) -> tuple[str, ...]:
        from .rational import rational_to_string

        lines = []
        for form in self.forms:
            terms = []
            for j, c in form:
                if c == 1:
                    terms.append(f"x{j}^{self.k}")
                elif c == -1:
                    terms.append(f"-x{j}^{self.k}")
                else:
                    terms.append(f"{rational_to_string(c)}*x{j}^{self.k}")
            lines.append(" + ".join(terms).replace("+ -", "- "))
        return tuple(lines)

    def to_json(self):
        from .rational import rational_to_string

        return {
            "d": self.d,
            "n": self.n,
            "k": self.k,
            "forms": [
                [[j, rational_to_string(c)] for j, c in form]
                for form in self.forms
            ],
            "coefficient_matrix": self.coefficient_matrix.to_json(),
            "text": list(self.polynomial_text()),
        }


def equations(par: StandardParameter, k: int) -> EquationSystem:
    """Equation system of the variety over a parameter in X_{n,d}."""
    from .arrangement import _checked_duals

    if k < 2:
        raise ValueError("degree k must be >= 2")
    _checked_duals(par)
    return EquationSystem.from_table(par.d, par.n, k, par.rows)


def smoothness_certificate(system: EquationSystem) -> bool:
    """Exact smoothness test: every maximal minor of the (n-d) x (n+1)
    coefficient matrix C is nonzero.  C has full rank and its kernel is the
    row space of the Gale dual G, with columns e_1, ..., e_{d+1}, -(1,...,1)
    and -(l_i, 1); so C's minor on columns S is, up to sign and a common
    nonzero factor, G's (d+1)-minor on the rest.  Up to column signs G holds
    the table's dual points, so the test is their general position."""
    from .arrangement import StandardParameter, is_standard_parameter

    return is_standard_parameter(StandardParameter(system.d, system.n, system.table))


# ---------------------------------------------------------------------------
# Fixed loci and free actions
# ---------------------------------------------------------------------------

class FixedComponent(Frozen):
    """One connected component of a fixed locus.

    The component over level l keeps the coordinates indexed by that level
    set and is itself of type (d'; k, n') with d' = #L_l + d - n - 1 and
    n' = #L_l - 1; when d' = 0 it is a set of k^{n'} points.
    """

    __slots__ = ("level", "indices", "dimension", "subtype_d", "subtype_n", "point_count")

    def __init__(self, level: int, indices: tuple[int, ...], dimension: int, subtype_d: int,
                 subtype_n: int, point_count: int | None):
        (set_level, set_indices, set_dimension, set_subtype_d, set_subtype_n,
         set_point_count) = self._setters
        set_level(self, level)
        set_indices(self, indices)
        set_dimension(self, dimension)
        set_subtype_d(self, subtype_d)
        set_subtype_n(self, subtype_n)
        set_point_count(self, point_count)

    def to_json(self):
        return {
            "level": self.level,
            "indices": list(self.indices),
            "dimension": self.dimension,
            "type": {"d": self.subtype_d, "n": self.subtype_n},
            "point_count": self.point_count,
        }


class FixedLocusReport(Frozen):
    __slots__ = ("element", "gfm_type", "components")

    def to_json(self):
        return {
            "element": self.element.to_json(),
            "type": {"d": self.gfm_type.d, "k": self.gfm_type.k, "n": self.gfm_type.n},
            "components": [c.to_json() for c in self.components],
        }


# ``fixed_locus`` builds its report slot by slot, without an ``__init__`` frame.
_new_object = object.__new__
_set_element, _set_gfm_type, _set_components = FixedLocusReport._setters


def _component(exponents, level: int, size: int, d: int, k: int, n: int) -> FixedComponent:
    """The component over ``level``, whose level set has ``size`` >= n+1-d
    coordinates."""
    indices = tuple([j for j, m in enumerate(exponents, start=1) if m == level])
    dimension = size + d - n - 1
    count = k ** (size - 1) if dimension == 0 else None
    return FixedComponent(level, indices, dimension, dimension, size - 1, count)


def fixed_locus(element: GroupElement, gfm_type: GfmType) -> FixedLocusReport:
    """Components of the fixed locus of a deck-group element.

    A level set L_l of the canonical exponent vector contributes a component
    exactly when #L_l >= n+1-d; its dimension is #L_l + d - n - 1.  Every
    level may qualify (the level carrying exponent 0 fixes its coordinates
    pointwise just like any other), which is well defined because the
    canonical form pins the representative.  Components come in increasing
    level order.  When n >= 2d a qualifying level holds a strict majority
    of the first 2d+1 coordinates, so only the median of their exponents is
    counted; otherwise the levels of the first d+1 coordinates are (module
    docstring).
    """
    d, k, n = gfm_type.d, gfm_type.k, gfm_type.n
    exponents = element.exponents
    if element.k != k or len(exponents) != n + 1:
        raise ValueError("element does not match the type")
    if n >= 2 * d:
        level = sorted(exponents[: 2 * d + 1])[d]
        size = exponents.count(level)
        components = (_component(exponents, level, size, d, k, n),) if size > n - d else ()
    else:
        components = []
        for level in sorted(set(exponents[: d + 1])):
            size = exponents.count(level)
            if size > n - d:
                components.append(_component(exponents, level, size, d, k, n))
        components = tuple(components)
    report = _new_object(FixedLocusReport)
    _set_element(report, element)
    _set_gfm_type(report, gfm_type)
    _set_components(report, components)
    return report


class FreeActionResult(Frozen):
    __slots__ = ("free", "offending", "subgroup_order")


def _packing(k: int, n: int) -> tuple[int, int]:
    """(w, ONES) of the packed exponent vectors (module docstring)."""
    w = (2 * k - 2).bit_length() + 1
    return w, ((1 << w * (n + 1)) - 1) // ((1 << w) - 1)


def _pack(digits, w: int) -> int:
    """The digits as one integer, w bits each, the first the most
    significant."""
    packed = 0
    for m in digits:
        packed = packed << w | m
    return packed


def _subgroup_closure(pivots, k: int, n: int) -> list[int]:
    """The subgroup with basis ``pivots`` as packed canonical exponent
    vectors (module docstring), identity first: pivot i appends the
    elements so far plus row_i, plus 2 row_i, ..., reduced digitwise mod k."""
    w, ones = _packing(k, n)
    high, shift = ones << (w - 1), w - 1
    off = high - k * ones
    elements = [0]
    for _, h, row in pivots:
        g = _pack(row, w) << w  # the row holds the first n exponents, 0 last
        for i in range(len(elements) * (k // h - 1)):
            s = elements[i] + g
            elements.append(s - ((s + off & high) >> shift) * k)
    return elements


def _triangular_basis(generators, k: int, n: int, budget: int):
    """(pivots, order) of the generated subgroup H = L / kZ^n, with L the
    lattice spanned by kZ^n and the first n canonical exponents of the
    generators, refused with ``BudgetExceeded`` as soon as the order passes
    the budget, before any element is formed; the one reader of the
    generators.

    Column c runs Euclid over k e_c and the rows that are nonzero at c.  The
    pivot row keeps h = gcd(k, column c) at c; every leftover row is 0 at c
    and passes on, among them +-(k/h) times a row, nonzero for composite k
    only.  A pivot (c, h, row) multiplies the order by k/h >= 2, so rows
    are combined at no more than log2(budget) columns."""
    rows = []
    for g in generators:
        if g.k != k or g.n != n:
            raise ValueError("generator does not match the type")
        if any(g.exponents):
            rows.append(list(g.exponents[:n]))
    pivots, order = [], 1
    for c in range(n):
        if not rows:
            break
        pivot, rest = [0] * n, []
        pivot[c] = k
        for b in rows:
            if b[c]:
                a = pivot
                while b[c]:
                    q = a[c] // b[c]
                    a, b = b, [(x - q * y) % k for x, y in zip(a, b)]
                pivot = a
                if not any(b):
                    continue
            rest.append(b)
        if pivot[c] < k:
            pivots.append((c, pivot[c], pivot))
            order *= k // pivot[c]
            if order > budget:
                raise BudgetExceeded(budget + 1, budget)
        rows = rest
    return pivots, order


def _candidate_count(d: int, k: int, n: int) -> int:
    """How many candidates ``_offender_by_candidates`` forms."""
    def spread(t):
        return sum(math.comb(n, s) * (k - 1) ** s for s in range(t + 1))
    return spread(d) + (k - 1) * spread(d - 1)


def _offender_by_candidates(pivots, d: int, k: int, n: int) -> GroupElement | None:
    """The least offender among the candidates, the packed canonical
    vectors with one level on at least n+1-d coordinates: level 0 off at
    most d of the first n coordinates, or a level l > 0 off the last one
    and at most d-1 others.  Sorted, the first in the subgroup is the least
    offender.  A candidate x is reduced along the pivots in column order,
    x - (x_c / h) row digitwise mod k, and is refused as soon as x_c is no
    multiple of h or a column before the next pivot is nonzero."""
    if not pivots:
        return None
    w, ones = _packing(k, n)
    high, digit = ones << (w - 1), (1 << w) - 1
    off = high - k * ones
    shifts = [w * (n - j) for j in range(n + 1)]
    candidates = []
    for level in range(k):
        # (vector, top): each further coordinate moved off the level lies
        # left of top, so every set of coordinates is taken once
        layer = [(level * (ones - 1), n)]
        for t in range(d + (level == 0)):
            if t:
                layer = [(x + (e - level << shifts[j]), j) for x, top in layer
                         for j in range(top) for e in range(k) if e != level]
            candidates += [x for x, _ in layer]
    candidates.sort()  # the zero vector comes first
    # x lies below limits[i] when its columns before pivot i are 0
    limits = [1 << shifts[c] + w for c, _, _ in pivots] + [1 << w]
    table = []  # (shift, h, the rows -q row packed for q < k/h, limit)
    for (c, h, row), limit in zip(pivots, limits[1:]):
        s = k * ones - (_pack(row, w) << w)
        negatives = [0, s - ((s + off & high) >> (w - 1)) * k]
        for _ in range(k // h - 2):
            s = negatives[1] + negatives[-1]
            negatives.append(s - ((s + off & high) >> (w - 1)) * k)
        table.append((shifts[c], h, negatives, limit))
    for x in candidates[1:]:
        if x >= limits[0]:  # so is every later one
            break
        y = x
        for shift, h, negatives, limit in table:
            v = y >> shift & digit
            if v % h:
                break
            s = y + negatives[v // h]
            y = s - ((s + off & high) >> (w - 1)) * k
            if y >= limit:
                break
        else:
            return GroupElement(k, tuple(x >> s & digit for s in shifts))
    return None


def _offender_by_enumeration(pivots, d: int, k: int, n: int) -> GroupElement | None:
    """The least offender by closure, sort and scan: the elements are
    scanned in integer order, which is exponent order, up to the first one
    with a fixed point.  An element has one when, for the level l of one of
    its first d+1 coordinates, at most d digits of element XOR l ONES are
    nonzero (module docstring)."""
    elements = _subgroup_closure(pivots, k, n)
    w, ones = _packing(k, n)
    high, digit = ones << (w - 1), (1 << w) - 1
    low = high - ones
    shifts = [w * (n - j) for j in range(d + 1)]
    elements.sort()  # the identity 0 stays first
    for x in elements[1:]:
        for s in shifts:
            if ((x ^ (x >> s & digit) * ones) + low & high).bit_count() <= d:
                return GroupElement(k, tuple(x >> w * (n - j) & digit for j in range(n + 1)))
    return None


def subgroup_acts_freely(
    generators,
    gfm_type: GfmType,
    budget: int = DEFAULT_BUDGET,
) -> FreeActionResult:
    """Whether the generated subgroup acts freely, its least (in exponent
    order) nontrivial element with a fixed point when it does not, and its
    order.

    The order comes first, from a triangular basis (``_triangular_basis``),
    and an order past the budget is refused with ``BudgetExceeded`` before
    any element is formed.  The least offender then comes from whichever
    path takes fewer steps, a property of the input: the candidates with a
    long level set, each reduced along the basis
    (``_offender_by_candidates``), when their count times the pivot count
    is below twice the order (a reduction step costs about half of an
    enumerated element); otherwise the subgroup formed from the basis
    (``_offender_by_enumeration``).
    """
    d, k, n = gfm_type.d, gfm_type.k, gfm_type.n
    pivots, order = _triangular_basis(generators, k, n, budget)
    if _candidate_count(d, k, n) * len(pivots) < 2 * order:
        offending = _offender_by_candidates(pivots, d, k, n)
    else:
        offending = _offender_by_enumeration(pivots, d, k, n)
    return FreeActionResult(offending is None, offending, order)


def bound_feasible(p: int, r: int, n: int) -> bool:
    """Necessary condition for a corank-r subgroup of the mod-p deck group
    to act freely in dimension >= 2: n+1 <= (p^r - 1)/(p - 1)."""
    if p < 2 or r < 1:
        raise ValueError("need a prime p >= 2 and r >= 1")
    return n + 1 <= (p**r - 1) // (p - 1)


# ---------------------------------------------------------------------------
# Linear automorphism verifier
# ---------------------------------------------------------------------------

def _monomial_support(matrix: ExactMatrix):
    """The lcm L of the entries' cyclotomic orders, and the column of the
    unique nonzero entry of each row, or None when the matrix is not
    monomial.  One pass over the entries finds both; it stops testing at a
    second nonzero entry in a row and then only reads the remaining orders.
    A cyclotomic entry is tested on its coefficients, without the
    Python-level ``__bool__``."""
    from .exactfield import CyclotomicScalar

    entries, cols = matrix.entries, matrix.cols
    orders, nonzero = set(), []
    for j, x in enumerate(entries):
        if type(x) is CyclotomicScalar:
            orders.add(x.order)
            if not any(x.nums):
                continue
        elif not x:
            continue
        if nonzero and nonzero[-1] // cols == j // cols:
            orders.update(y.order for y in entries[j:] if type(y) is CyclotomicScalar)
            return math.lcm(*orders), None
        nonzero.append(j)
    support = [j % cols for j in nonzero]
    monomial = sorted(support) == list(range(cols))
    return math.lcm(*orders), support if monomial else None


def _power(x, e: int):
    """x^e for e >= 1 by repeated squaring."""
    result = None
    while e:
        if e & 1:
            result = x if result is None else result * x
        e >>= 1
        if e:
            x = x * x
    return result


def _span_matrix(points, support, d: int) -> list[list[int]]:
    """The integer span conditions W of a monomial substitution (module
    docstring), read off the table's cleared dual points ``points``: point
    d+1+i is D_i times the first d+1 coefficients of form i, D_i last."""
    forms = points[d + 1:]
    scale = math.lcm(*[q[d] for q in forms])
    tails = [[scale // q[d] * x for x in q] for q in forms]  # M/D_j times point d+1+j
    span = []
    for i, q in enumerate(forms):
        block = [[0] * len(support) for _ in range(d + 1)]
        for r, x in (*enumerate(q), (d + 1 + i, q[d])):
            c = support[r]
            if c <= d:
                block[c][r] = scale * x
            else:
                for row, y in zip(block, tails[c - d - 1]):
                    row[r] = -x * y
        span += block
    return span


def _span_holds(span, powers, order: int) -> bool:
    """Whether W b = 0 for the b_r = sum c zeta_order^e over the (e, c) of
    ``powers[r]``: each row is gathered by exponent into integers, reduced
    modulo Phi_order only when two or more of them stay nonzero."""
    from .exactfield import _reduce

    for row in span:
        gathered = [0] * order
        for w, terms in zip(row, powers):
            if w:
                for e, c in terms:
                    gathered[e] += w * c
        live = order - gathered.count(0)
        if live == 1 or live > 1 and _reduce(order, gathered, 1):
            return False
    return True


def is_linear_automorphism(matrix: ExactMatrix, par: StandardParameter, k: int) -> bool:
    """Verify a candidate linear automorphism of the variety.

    Accepts exactly the monomial matrices (one nonzero entry per row and
    column) whose substitution maps every defining form into the span of the
    defining forms; a non-monomial matrix is rejected, or refused with
    ``ValueError`` when it is singular, by its determinants modulo split
    primes (``modp.is_singular``).

    A monomial matrix sending x_r to a_r x_s(r) is accepted iff W b = 0,
    b_r = a_r^k, for its span conditions W (``_span_matrix``, module
    docstring), first tested modulo a split prime unless the exact powers
    are free.  An entry (u/v) zeta_L^j enters b as t^k zeta_L^(jk mod L),
    uV/v = tg with V the lcm of the v and g the gcd of the uV/v, so b is
    scaled by (V/g)^k and t = +-1 when every entry is +-a_0 times a root of
    unity.  Any other entry is raised by repeated squaring in its own field
    and promoted to Q(zeta_L); then g = 1, and b is also scaled by the lcm
    of those powers' denominators.
    """
    if matrix.rows != matrix.cols or matrix.rows != par.n + 1:
        raise ValueError("matrix must be square of size n+1")
    order, support = _monomial_support(matrix)
    if support is None:
        from . import modp

        if modp.is_singular([matrix.row(i) for i in range(matrix.rows)], order):
            raise ValueError("matrix is singular")
        return False
    from .arrangement import _checked_duals

    if k < 2:
        raise ValueError("degree k must be >= 2")
    points = _checked_duals(par)
    span = _span_matrix(points, support, par.d)
    entries = [matrix.entry(r, c) for r, c in enumerate(support)]
    roots = []  # (u, v, j) of each entry (u/v) zeta_L^j, or None
    for x in entries:
        found = x.root_multiple() if hasattr(x, "nums") else (x.numerator, x.denominator, 0)
        roots.append(found and (*found[:2], found[2] * (order // getattr(x, "order", 1))))
    if None in roots or len({(abs(u), v) for u, v, _ in roots}) > 1:
        from . import modp

        p, unit = next(modp.split_primes(order, entries + [x for row in par.rows for x in row]))
        table = modp.root_powers(unit, p, order)
        residues = [pow(modp.residue(x, p, table), k, p) for x in entries]
        if any(sum(map(int.__mul__, row, residues)) % p for row in span):
            return False
    general = {r: _power(x, k).promote(order) for r, x in enumerate(entries) if roots[r] is None}
    den = math.lcm(*(y.den for y in general.values()))
    scale = math.lcm(*(root[1] for root in roots if root))
    g = 1 if general else math.gcd(*(u * (scale // v) for u, v, _ in roots))
    lift = scale ** k if general else 1
    powers = []
    for r, root in enumerate(roots):
        if root:
            u, v, j = root
            powers.append(((j * k % order, (u * (scale // v) // g) ** k * den),))
        else:
            y = general[r]
            powers.append([(e, c * (den // y.den) * lift) for e, c in enumerate(y.nums) if c])
    return _span_holds(span, powers, order)


# ---------------------------------------------------------------------------
# Automorphism order and low-n classification
# ---------------------------------------------------------------------------

class AutomorphismOrder(Frozen):
    """|Aut| = |G_0| k^n, with G_0 the stabilizer of the branch divisor.

    ``stabilizer_order`` counts the permutations fixing the parameter (the
    group G_0 itself); ``stabilizer_image_order`` is its image after the
    kernel quotient, which differs only for (n, d) = (3, 1).  For the two
    exceptional triples the order refers to the linear automorphism group.
    """

    __slots__ = ("order", "stabilizer_order", "stabilizer_image_order", "kernel_order",
                 "deck_order", "category")

    def to_json(self):
        return {
            "order": self.order,
            "stabilizer_order": self.stabilizer_order,
            "stabilizer_image_order": self.stabilizer_image_order,
            "kernel_order": self.kernel_order,
            "deck_order": self.deck_order,
            "category": self.category,
        }


def automorphism_order(
    par: StandardParameter, k: int, budget: int = DEFAULT_BUDGET
) -> AutomorphismOrder:
    """|Aut| = |G_0| k^n, with G_0 the stabilizer of par in S_{n+1}.

    ``kernel_order`` is the order of the kernel of the S_{n+1}-action on
    X_{n,d}: (n+1)! for n = d+1, where X_{n,d} is the empty table alone; 4
    for (n, d) = (3, 1), the Klein four-group; and 1 otherwise, by the
    normal-subgroup proof in ``modaction.kernel_of_R``.
    """
    from .modaction import EXCEPTIONAL_TYPES, stabilizer

    stab = len(stabilizer(par, budget=budget))
    if par.n == par.d + 1:
        kernel = math.factorial(par.n + 1)
    elif (par.n, par.d) == (3, 1):
        kernel = 4
    else:
        kernel = 1
    deck = k**par.n
    # the full automorphism group is infinite for the two K3 triples and
    # for curves of genus <= 1; the order then refers to Lin only
    infinite_aut = (par.d, k, par.n) in EXCEPTIONAL_TYPES or (
        par.d == 1 and (k - 1) * (par.n - 1) <= 2
    )
    category = "Lin" if infinite_aut else "Aut"
    return AutomorphismOrder(stab * deck, stab, stab // kernel, kernel, deck, category)


class LowNClassification(Frozen):
    __slots__ = ("d", "n", "case", "description")

    def to_json(self):
        return {"d": self.d, "n": self.n, "case": self.case,
                "description": self.description}


def classify_low_n(d: int, n: int) -> LowNClassification:
    """The degenerate range 2 <= n <= d: only n = d occurs, and the manifold
    is P^d with the deck group generated by the d coordinate multipliers."""
    if n >= d + 1:
        raise ValueError("classify_low_n handles only 2 <= n <= d")
    if n < 2 or d < 2:
        raise ValueError("need d >= 2 and n >= 2")
    if n == d:
        return LowNClassification(
            d, n, "projective-space",
            f"M = P^{d}; the group is generated by the {d} coordinate "
            "multipliers rho_1, ..., rho_d (multiply one coordinate by a "
            "primitive k-th root of unity)",
        )
    return LowNClassification(
        d, n, "nonexistent",
        "no generalized Fermat pair exists for n < d",
    )
