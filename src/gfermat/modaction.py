"""The symmetric-group action on the normal-form parameter set.

Reordering the n+1 hyperplanes of an arrangement and renormalizing induces
a bijection of X_{n,d} for every permutation.  The transposition (1 2) and
the full cycle (1 2 ... n+1) also have closed-form expressions on the
parameter table; both paths are implemented and cross-checked in tests.

Composition convention: products of permutations are read left to right
(``(a * b)(x) = b(a(x))``), under which ``act(a * b, p) ==
act(b, act(a, p))``.

Orbit, stabilizer, canonical form and isomorphism scan frames, not all of
S_{n+1}.  act(eta, p) depends only on the frame eta sets up: the d+1
hyperplanes it puts in the basis slots, in order, and the one it puts in
the anchor slot.  The other n-d-1 hyperplanes only decide the order of the
table rows.  For every basis set S, ordering (b_0, ..., b_d) of S and
anchor a outside S, the row of each other hyperplane q is

    C[b_j][q] C[b_d][a] / (C[b_j][a] C[b_d][q]),  j < d,

with C[b][q] the coordinate of dual point q along b in the basis S; a
factor depending on b alone, on q alone or on S cancels.  By Cramer's rule
C[b][q] is the maximal minor of S with q in b's place.  Let D(T) be the
minor of T's points in increasing order and i_x count the elements of S
below x: putting q in its own place is a sign (-1)^(i_b + i_q + 1), times
-1 when b > q.  So C[b][q] = D(S - b + q), negated when b > q
(``_coordinate``): the table of every D(T), keyed by T's bitmask and built
once to decide general position, gives every frame's rows.

A permutation fixes p iff its frame's rows are p's rows in p's order.  In
general position the rows of a table are distinct, and so are the entries
of a row: entries j and k of q's row are equal iff the minor of
S - {b_j, b_k} + {q, a} is 0.  So a frame whose row set equals p's sends
each other hyperplane to one forced slot: each such frame gives exactly one
stabilizer element (and, against a second table, one isomorphism).  The
orbit is built per basis set S, anchor a and b_d: each head hyperplane b
gets one column, the keys of its entries over the other hyperplanes, and
each order of the head zips its columns into one frame's rows.  The
output is built once per distinct key (one ``Fraction``), row (one tuple,
ranked once) and element: the orbit is every permutation of every row
set's ranks, made and sorted in C, and its elements share the row tuples.
Scans are still charged
(n+1)! against the budget, which bounds the (n+1)!/(n-d-1)! frames they
visit.

Each entry is a cross-ratio.  Let R = S - {b_j, b_d} (empty for d = 1) and
[x y] = D(R + x + y), negated when x > y: up to a sign for x and one for y,
the determinant of x and y in the pencil of hyperplanes through R.  The
signs of the four C's and of the four brackets cancel, so the entry of q's
row at b = b_j in the frame (S, a, b_d) is [b_d q][b a] / ([b_d a][b q]),
the cross-ratio of (b, b_d; a, q) on that pencil.  It depends only on R
and on the ordered 4-tuple (b, b_d, a, q).  So the entries of all frames
fall into C(n+1, d-1) C(n+2-d, 4) classes, one per R and 4-subset W of the
other hyperplanes.  A cross-ratio lambda keeps its value under the Klein
four-group of double swaps, so W's 24 orderings give six values: lambda,
1-lambda, 1/lambda, (lambda-1)/lambda, 1/(1-lambda) and lambda/(lambda-1),
four orderings each (``_ORDERINGS``).  Canon's first row starts with the
least entry of any frame, the least key of any class, and only the
orderings with that value have their frames' rows built.  Stabilizer, iso
and aut-order keep the classes that hold the target's first entry: each
ordering with it fixes b_0, b_d, a and the hyperplane in slot d+2, whose
row fixes the head order, and every other row must be a target row.

The scans key each table entry x = num/den, where num and den are products
of two signed minors, as the integer floor(x 2^K) = (num << K) // den (``//``
floors for either sign of den): no gcd and no float.  Let M be the largest
|minor|, so |den| <= M^2.  Two distinct entries a/b and c/e differ by
|a e - c b| / |b e| >= 1/M^4, which is at least 2^-K when 2^K >= M^4.  Then
x < y gives x 2^K + 1 <= y 2^K, so floor(x 2^K) < floor(x 2^K) + 1 <=
floor(y 2^K): the key is strictly increasing, so it is exact and injective
and equal entries share it.  A target's values have denominators below 2^t,
so an entry and a target value differ by more than 1/(M^2 2^t), and K also
takes 2^K >= M^2 2^t.  Two target values are never compared: a key they
shared would be no entry's.  A class's six values are entries of its other
orderings, so their keys are exact too; floor((1-x) 2^K) = 2^K - ceil(x 2^K)
comes from the remainder of x's division.  Rows are tuples of int keys,
which sets, dicts, ``sorted`` and ``min`` hash and compare in C in the
rational order.  ``_keyed`` and the orbit's columns record one (num, den)
per key, and only the output's distinct entries become ``Fraction``s.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from itertools import chain, count, repeat, starmap

from .arrangement import (
    StandardParameter,
    _frame_normal_form,
    _integer_duals,
    is_standard_parameter,
)
from .errors import DEFAULT_BUDGET, BudgetExceeded, Frozen
from .rational import minors

__all__ = [
    "Permutation",
    "OrbitReport",
    "IsomorphismResult",
    "act",
    "act_sigma1",
    "act_sigma2",
    "orbit_and_stabilizer",
    "stabilizer",
    "kernel_note",
    "kernel_of_R",
    "are_isomorphic",
    "canonical_representative",
    "DEFAULT_BUDGET",
    "EXCEPTIONAL_TYPES",
]

# (d, k, n) triples whose full automorphism group is infinite; orbit
# equivalence then classifies only the linear category.
EXCEPTIONAL_TYPES = frozenset({(2, 2, 5), (2, 4, 3)})


class Permutation(Frozen):
    """A permutation of {0, ..., m-1} stored in one-line notation."""

    __slots__ = ("images",)

    def __init__(self, images: tuple[int, ...]):
        images = tuple(int(i) for i in images)
        if sorted(images) != list(range(len(images))):
            raise ValueError("images must be a bijection of 0..m-1")
        super().__init__(images)

    @classmethod
    def transposition(cls, m: int, i: int, j: int) -> Permutation:
        images = list(range(m))
        images[i], images[j] = images[j], images[i]
        return cls(tuple(images))

    @classmethod
    def full_cycle(cls, m: int) -> Permutation:
        return cls(tuple((i + 1) % m for i in range(m)))

    @classmethod
    def from_one_line(cls, images_1based) -> Permutation:
        return cls(tuple(int(i) - 1 for i in images_1based))

    def one_line(self) -> tuple[int, ...]:
        """1-based image list, the serialization format."""
        return tuple(i + 1 for i in self.images)

    @property
    def degree(self) -> int:
        return len(self.images)

    def __mul__(self, other: Permutation) -> Permutation:
        """Apply self, then other."""
        return Permutation(tuple(other.images[i] for i in self.images))

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.images))


def act(eta: Permutation, par: StandardParameter, *, validate: bool = True) -> StandardParameter:
    """Reorder the canonical arrangement by eta and renormalize.

    Slot j of the reordered arrangement receives hyperplane eta^{-1}(j), so
    hyperplane i moves to slot eta(i).
    """
    if eta.degree != par.n + 1:
        raise ValueError("permutation degree must be n+1")
    if validate and not is_standard_parameter(par):
        raise ValueError("parameter is not in X_{n,d}")
    points, slotted = _integer_duals(par), [None] * (par.n + 1)
    for j, point in zip(eta.images, points):
        slotted[j] = point
    rows = _frame_normal_form(slotted, par.d, ())[2]
    return StandardParameter._trusted(par.d, par.n, rows)


def act_sigma1(par: StandardParameter) -> StandardParameter:
    """The transposition (1 2): swaps the first two table columns for d >= 2;
    for d = 1 it falls back to reorder-and-renormalize."""
    if par.d == 1:
        return act(Permutation.transposition(par.n + 1, 0, 1), par, validate=False)
    rows = tuple(
        (row[1], row[0]) + row[2:] for row in par.rows
    )
    return StandardParameter(par.d, par.n, rows)


def act_sigma2(par: StandardParameter) -> StandardParameter:
    """Closed form of the full cycle (1 2 ... n+1) on the parameter table."""
    d, n = par.d, par.n
    if not par.rows:
        return par
    cols = par.columns  # cols[j-1][i-1] = l_{i,j}
    count = n - d - 1
    pivot = cols[d - 1][count - 1]  # l_{count, d}
    new_rows = []
    first = [pivot / (pivot - 1)]
    for j in range(2, d + 1):
        ref = cols[j - 2][count - 1]  # l_{count, j-1}
        first.append(pivot * (ref - 1) / (ref * (pivot - 1)))
    new_rows.append(tuple(first))
    for i in range(1, count):
        row = [pivot / (pivot - cols[d - 1][i - 1])]
        for j in range(2, d + 1):
            ref = cols[j - 2][count - 1]
            row.append(
                pivot * (ref - cols[j - 2][i - 1])
                / (ref * (pivot - cols[d - 1][i - 1]))
            )
        new_rows.append(tuple(row))
    return StandardParameter(d, n, tuple(new_rows))


class OrbitReport(Frozen):
    """Orbit and stabilizer of a parameter under the reorder action.

    The stabilizer is reported as a subgroup of the full symmetric group on
    n+1 letters (before the quotient by the kernel of the action), so
    |elements| * |stabilizer| = (n+1)!.  ``kernel_note`` flags the (n, d) =
    (3, 1) case whose kernel is the Klein four-group.
    """

    __slots__ = ("base", "elements", "stabilizer", "kernel_note")

    @property
    def orbit_size(self) -> int:
        return len(self.elements)

    @property
    def stabilizer_order(self) -> int:
        return len(self.stabilizer)


def kernel_note(n: int, d: int) -> str | None:
    """The note flagging the (n, d) = (3, 1) kernel, else None."""
    if (n, d) == (3, 1):
        return ("the action kernel is the Klein four-group "
                "{e, (12)(34), (13)(24), (14)(23)}")
    return None


def _key_shift(minor_table, target_rows=()) -> int:
    """The shift K of the entry keys floor(x 2^K): 2^K >= M^4 for M the
    largest |minor| and, against target rows with t-bit denominators, also
    2^K >= M^2 2^t (module docstring)."""
    m = max(map(abs, minor_table.values())).bit_length()
    t = max((x.denominator.bit_length() for row in target_rows for x in row), default=0)
    return max(4 * m, 2 * m + t)


def _coordinate(minor_table, basis: int, b: int, q: int) -> int:
    """C[b][q] in the basis set with bitmask ``basis``: D(S - b + q), negated
    when b > q (module docstring)."""
    minor = minor_table[basis - (1 << b) + (1 << q)]
    return -minor if b > q else minor


def _columns(minor_table, basis, mask: int, hyperplanes) -> dict:
    """{q: {b: C[b][q]}} for each q in hyperplanes and b in basis (bitmask mask)."""
    return {q: {b: _coordinate(minor_table, mask, b, q) for b in basis} for q in hyperplanes}


def _keyed(c, ca, head, last, shift: int, pairs: dict) -> dict:
    """{b: key} of the entries b in head of the row of q, with c = {b: C[b][q]}:
    num/den = C[b][q] C[last][a] / (C[b][a] C[last][q]), num and den each a
    product of two signed minors, keyed (num << shift) // den; pairs[key]
    records (num, den)."""
    e = {}
    for b in head:
        num, den = c[b] * ca[last], ca[b] * c[last]
        key = e[b] = (num << shift) // den
        pairs[key] = num, den
    return e


def _slots(target: StandardParameter, shift: int) -> dict:
    """{key row: slot} of target's rows, slots d+2.. in row order."""
    return {tuple((x.numerator << shift) // x.denominator for x in row): j
            for j, row in enumerate(target.rows, start=target.d + 2)}


def _one_line(frame, slotted: dict) -> tuple[int, ...]:
    """One-line images of the permutation putting frame[j] in slot j and each
    other hyperplane h in slot slotted[h]."""
    images = [0] * (len(frame) + len(slotted))
    for j, h in enumerate(frame):
        images[h] = j
    for h, j in slotted.items():
        images[h] = j
    return tuple(images)


# Positions in a 4-subset W = (w0, w1, w2, w3) of the orderings (b, b_d, a, q)
# whose entry is, in turn, lambda, 1-lambda, 1/lambda, (lambda-1)/lambda,
# 1/(1-lambda) and lambda/(lambda-1), for lambda the entry of W in its own
# order; each set of four is closed under the double swaps (module docstring).
_ORDERINGS = tuple(tuple(tuple(p[i] for i in v) for v in ((0, 1, 2, 3), (1, 0, 3, 2),
                                                          (2, 3, 0, 1), (3, 2, 1, 0)))
                   for p in ((0, 1, 2, 3), (0, 2, 1, 3), (0, 1, 3, 2),
                             (0, 3, 1, 2), (0, 2, 3, 1), (0, 3, 2, 1)))


def _classes(par: StandardParameter, minor_table, shift: int):
    """(R, W, keys) per (d-1)-subset R and 4-subset W of the other
    hyperplanes, with the six keys of W's class in the order of
    ``_ORDERINGS``: three divisions, lambda, 1/lambda and 1/(1-lambda), each
    also giving the key of 1 minus its value, 2^K - ceil(x 2^K)."""
    hyperplanes, one = range(par.n + 1), 1 << shift
    for rest in itertools.combinations(hyperplanes, par.d - 1):
        mask = sum(1 << r for r in rest)
        for w in itertools.combinations([h for h in hyperplanes if not mask >> h & 1], 4):
            b, last, a, q = w
            basis = mask | 1 << b | 1 << last
            num = _coordinate(minor_table, basis, b, q) * _coordinate(minor_table, basis, last, a)
            den = _coordinate(minor_table, basis, b, a) * _coordinate(minor_table, basis, last, q)
            lam, lam_rem = divmod(num << shift, den)
            inv, inv_rem = divmod(den << shift, num)
            co, co_rem = divmod(den << shift, den - num)
            yield rest, w, (lam, one - lam - (lam_rem != 0), inv, one - inv - (inv_rem != 0),
                            co, one - co - (co_rem != 0))


def _frames_with(par: StandardParameter, minor_table, classes, key: int):
    """(head, last, a, ca, others) for the frame of each ordering
    (b, last, a, q) of a class whose entry has the given key: basis set
    S = R + {b, last}, head = S - {last}, b_d = last, anchor a, ca = {b: C[b][a]}
    and the pairs (h, {b: C[b][h]}) of the other hyperplanes h outside S.
    q comes first in others, and its row holds that entry at b."""
    for rest, w, keys in classes:
        for k, orderings in zip(keys, _ORDERINGS) if key in keys else ():
            if k == key:
                for b, last, a, q in (map(w.__getitem__, p) for p in orderings):
                    head = [*rest, b]
                    mask = sum(1 << h for h in head) | 1 << last
                    coords = _columns(minor_table, (*head, last), mask, [q, a] + [
                        h for h in range(par.n + 1) if not mask >> h & 1 and h not in (a, q)])
                    ca = coords.pop(a)
                    yield head, last, a, ca, list(coords.items())


def _carriers(par: StandardParameter, target: StandardParameter, minor_table):
    """The one-line images of every permutation carrying par to target.

    Only the frames whose slot d+2 holds the target's first entry are built
    (``_frames_with``).  That hyperplane's row must be the target's first
    row, which fixes the head order, and each other row must be a target
    row, which fixes its hyperplane's slot (module docstring)."""
    if not target.rows:  # n = d+1: the empty table, fixed by every frame
        yield from itertools.permutations(range(par.n + 1))
        return
    shift, pairs = _key_shift(minor_table, target.rows), {}
    slots = _slots(target, shift)
    first = next(iter(slots))  # the key row of slot d+2
    for head, last, a, ca, others in _frames_with(
            par, minor_table, _classes(par, minor_table, shift), first[0]):
        (q, cq), *others = others
        e = {x: b for b, x in _keyed(cq, ca, head, last, shift, pairs).items()}
        order = [e.get(x) for x in first]
        if None in order:
            continue
        slotted = {q: par.d + 2}
        for h, c in others:
            j = slotted[h] = slots.get(tuple(_keyed(c, ca, order, last, shift, pairs).values()))
            if j is None:
                break
        else:
            yield _one_line((*order, last, a), slotted)


def _check_scan(par: StandardParameter, budget: int) -> dict:
    """The table {bitmask of a (d+1)-subset: signed minor} of par's dual
    points; refuse a parameter off X_{n,d} (a zero minor), then charge
    (n+1)!.  A scan past the budget builds no table: it is refused after the
    lazy membership sweep, which stops at the first zero minor."""
    size = math.factorial(par.n + 1)
    if size > budget:
        if not is_standard_parameter(par):
            raise ValueError("parameter is not in X_{n,d}")
        raise BudgetExceeded(size, budget)
    subsets = itertools.combinations([1 << h for h in range(par.n + 1)], par.d + 1)
    minor_table = dict(zip(map(sum, subsets), minors(_integer_duals(par))))
    if not all(minor_table.values()):
        raise ValueError("parameter is not in X_{n,d}")
    return minor_table


def orbit_and_stabilizer(par: StandardParameter, budget: int = DEFAULT_BUDGET) -> OrbitReport:
    """Orbit and stabilizer by the frame scan of zipped key columns (module
    docstring); exact, budgeted at (n+1)!."""
    minor_table, pairs = _check_scan(par, budget), {}
    shift = _key_shift(minor_table, par.rows)
    slots, hyperplanes = _slots(par, shift), range(par.n + 1)
    own, row_sets, stabilizer = frozenset(slots), set(), []
    add, permutations = row_sets.add, itertools.permutations
    for basis in itertools.combinations(hyperplanes, par.d + 1):
        mask = sum(1 << b for b in basis)
        coords = _columns(minor_table, basis, mask, [q for q in hyperplanes if not mask >> q & 1])
        heads = [(last, [b for b in basis if b != last]) for last in basis]
        for a, ca in coords.items():
            cs = [c for q, c in coords.items() if q != a]
            for last, head in heads:
                cal, columns = ca[last], []
                for b in head:
                    cab = ca[b]
                    columns.append(column := [])
                    for c in cs:
                        num, den = c[b] * cal, cab * c[last]
                        key = (num << shift) // den
                        if key not in pairs:
                            pairs[key] = num, den
                        column.append(key)
                for order, cols in zip(permutations(head), permutations(columns)):
                    row_set = frozenset(zip(*cols))
                    add(row_set)
                    if row_set == own:
                        others = [q for q in coords if q != a]
                        stabilizer.append(_one_line((*order, last, a), dict(
                            zip(others, map(slots.__getitem__, zip(*cols))))))
    # tables as row-rank tuples (keys order rows as their values do), made and sorted in C
    distinct = sorted(set().union(*row_sets))
    rank = dict(zip(distinct, count())).__getitem__
    tables = sorted(chain(*map(permutations, map(sorted, map(map, repeat(rank), row_sets)))))
    fractions = dict(zip(pairs, starmap(Fraction, pairs.values())))  # every entry
    rows = list(zip(*[map(fractions.__getitem__, chain(*distinct))] * par.d))  # d at a time
    return OrbitReport(
        par,
        StandardParameter._trusted_all(
            par.d, par.n, list(map(tuple, map(map, repeat(rows.__getitem__), tables)))),
        tuple(map(Permutation, sorted(stabilizer))),
        kernel_note(par.n, par.d),
    )


def stabilizer(par: StandardParameter, budget: int = DEFAULT_BUDGET) -> tuple[Permutation, ...]:
    """The stabilizer of ``orbit_and_stabilizer`` without the orbit."""
    return tuple(map(Permutation, sorted(_carriers(par, par, _check_scan(par, budget)))))


KLEIN_ONE_LINE = ((1, 2, 3, 4), (2, 1, 4, 3), (3, 4, 1, 2), (4, 3, 2, 1))


def kernel_of_R(
    n: int,
    d: int,
    rng: random.Random | None = None,
    budget: int = DEFAULT_BUDGET,
) -> tuple[Permutation, ...]:
    """Permutations acting trivially on every parameter, for 1 <= d <= n-2.

    For (n, d) = (3, 1) the kernel is the Klein four-group (a proved fact,
    returned directly).  Otherwise n >= 4, since n = d+2 = 3 only for d = 1.
    The kernel is normal in S_{n+1}, and for n+1 >= 5 the normal subgroups
    of S_{n+1} are 1, A_{n+1} and S_{n+1}: a normal N meets the simple
    A_{n+1} in 1 or in A_{n+1}, and if it meets it in 1 then |N| <= 2, so N
    is central, while the centre of S_{n+1} is trivial.  A_{n+1} and S_{n+1}
    both contain the 3-cycle (1 2 3), so one parameter that (1 2 3) moves
    proves the kernel trivial.

    Parameters are drawn row by row with entries num/den, num in -9..9 and
    den in 1..9, until one lies in X_{n,d} and is moved.  Each draw is
    charged its C(n+1, d+1) membership sweep against the budget before it
    is drawn.
    """
    if d < 1 or n < d + 2:
        raise ValueError("kernel identification needs d >= 1 and n >= d+2")
    if (n, d) == (3, 1):
        return tuple(Permutation.from_one_line(p) for p in KLEIN_ONE_LINE)
    rng = rng or random.Random(0)
    cycle = Permutation((1, 2, 0, *range(3, n + 1)))
    sweep, spent = math.comb(n + 1, d + 1), 0
    while True:
        spent += sweep
        if spent > budget:
            raise BudgetExceeded(spent, budget)
        rows = tuple(tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(d))
                     for _ in range(n - d - 1))
        par = StandardParameter._trusted(d, n, rows)
        if is_standard_parameter(par) and act(cycle, par, validate=False) != par:
            return (Permutation(tuple(range(n + 1))),)


class IsomorphismResult(Frozen):
    __slots__ = ("equivalent", "witness", "note")


def are_isomorphic(
    first: StandardParameter,
    second: StandardParameter,
    k: int | None = None,
    budget: int = DEFAULT_BUDGET,
) -> IsomorphismResult:
    """Orbit-equality test, with the lexicographically least witnessing
    permutation (one-line order) when true.

    When a degree ``k`` is supplied and (d; k, n) is one of the exceptional
    triples, the verdict is tagged as a statement about the linear category
    only (the full automorphism groups there are infinite).
    """
    if (first.d, first.n) != (second.d, second.n):
        raise ValueError("parameters must share the same (n, d)")
    if not is_standard_parameter(second):
        raise ValueError("parameter is not in X_{n,d}")
    scan = _carriers(first, second, _check_scan(first, budget))
    note = None
    if k is not None and (first.d, k, first.n) in EXCEPTIONAL_TYPES:
        note = "linear-category"
    witness = min(scan, default=None)
    if witness is None:
        return IsomorphismResult(False, None, note)
    return IsomorphismResult(True, Permutation(witness), note)


def canonical_representative(par: StandardParameter, budget: int = DEFAULT_BUDGET) -> StandardParameter:
    """Lexicographically least orbit element (exact rational order on the
    flattened table); equal for two parameters iff they are orbit-equivalent.

    It is the least over frames of the frame's rows in sorted order, so its
    first row starts with the least entry of any frame, the least key of any
    class.  Only the frames with that entry are built (``_frames_with``).
    Entries of a row are distinct, so each least row holding it fixes the
    head order of its frame; only those frames' tables are sorted in full."""
    minor_table = _check_scan(par, budget)
    if not par.rows:
        return par
    shift, pairs = _key_shift(minor_table), {}
    classes = list(_classes(par, minor_table, shift))
    least, ties = None, []
    for head, last, a, ca, others in _frames_with(
            par, minor_table, classes, min(min(keys) for *_, keys in classes)):
        rows = [_keyed(c, ca, head, last, shift, pairs) for _, c in others]
        low = sorted(rows[0].values())
        if least is None or low < least:
            least, ties = low, []
        if low == least:
            order = sorted(head, key=rows[0].__getitem__)
            ties.append(sorted(tuple(map(f.__getitem__, order)) for f in rows))
    return StandardParameter._trusted(
        par.d, par.n, tuple(tuple(Fraction(*pairs[x]) for x in row) for row in min(ties)))
