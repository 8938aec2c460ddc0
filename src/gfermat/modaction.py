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
-1 when b > q.  So C[b][q] = D(S - b + q), negated when b > q: the table of
every D(T), built once to decide general position, gives every frame's rows.

A permutation fixes p iff its frame's rows are p's rows in p's order.  In
general position the rows of a table are distinct, so a frame whose row set
equals p's sends each other hyperplane to one forced slot: each such frame
gives exactly one stabilizer element (and, against a second table, one
isomorphism).  The orbit is every row order of every frame's rows.  Scans
are still charged (n+1)! against the budget, which bounds the
(n+1)!/(n-d-1)! frames they visit.

The scans carry every table entry as an integer pair (p, q) with q > 0 and
gcd(p, q) = 1, built with one gcd.  Each rational has exactly one such
pair, so two pairs are equal iff their rationals are: sets and dicts of
rows hash and compare plain int tuples.  With positive denominators
p/q < r/s iff p s < r q (multiply both sides by q s > 0), so the one sort
of distinct rows and canon's row order compare by cross-multiplication.
Only the distinct rows of the output become ``Fraction``s, once each.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key

from .arrangement import (
    StandardParameter,
    _frame_normal_form,
    _integer_duals,
    is_standard_parameter,
    random_parameter,
)
from .errors import DEFAULT_BUDGET, BudgetExceeded, Inconclusive
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


@dataclass(frozen=True)
class Permutation:
    """A permutation of {0, ..., m-1} stored in one-line notation."""

    images: tuple[int, ...]

    def __post_init__(self):
        images = tuple(int(i) for i in self.images)
        if sorted(images) != list(range(len(images))):
            raise ValueError("images must be a bijection of 0..m-1")
        object.__setattr__(self, "images", images)

    @classmethod
    def identity(cls, m: int) -> Permutation:
        return cls(tuple(range(m)))

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

    def __call__(self, i: int) -> int:
        return self.images[i]

    def __mul__(self, other: Permutation) -> Permutation:
        """Apply self, then other."""
        return Permutation(tuple(other.images[i] for i in self.images))

    def inverse(self) -> Permutation:
        images = [0] * len(self.images)
        for i, j in enumerate(self.images):
            images[j] = i
        return Permutation(tuple(images))

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
    points = _integer_duals(par)
    slots = eta.inverse().images
    rows = _frame_normal_form([points[i] for i in slots], par.d)[2]
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


@dataclass(frozen=True)
class OrbitReport:
    """Orbit and stabilizer of a parameter under the reorder action.

    The stabilizer is reported as a subgroup of the full symmetric group on
    n+1 letters (before the quotient by the kernel of the action), so
    |elements| * |stabilizer| = (n+1)!.  ``kernel_note`` flags the (n, d) =
    (3, 1) case whose kernel is the Klein four-group.
    """

    base: StandardParameter
    elements: tuple[StandardParameter, ...]
    stabilizer: tuple[Permutation, ...]
    kernel_note: str | None

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


def _frame_tables(par: StandardParameter, minor_table):
    """(frame, {hyperplane: row}) for every ordered frame (b_0, ..., b_d, a)
    of par's canonical arrangement, with the row of every hyperplane outside
    it read off the minor table (module docstring), each entry a normalized
    (p, q) pair, built once per basis set, anchor and b_d."""
    d, gcd, hyperplanes = par.d, math.gcd, range(par.n + 1)
    for basis in itertools.combinations(hyperplanes, d + 1):
        coords = {q: {b: minor_table[tuple(sorted({*basis, q} - {b}))] * (-1 if b > q else 1)
                      for b in basis}
                  for q in hyperplanes if q not in basis}
        for a, ca in coords.items():
            for last in basis:
                head = [b for b in basis if b != last]
                entries = {}
                for q, c in coords.items():
                    if q != a:
                        e = entries[q] = {}
                        for b in head:
                            num, den = c[b] * ca[last], ca[b] * c[last]
                            g = gcd(num, den) if den > 0 else -gcd(num, den)
                            e[b] = (num // g, den // g)
                for order in itertools.permutations(head):
                    yield order + (last, a), {q: tuple(map(e.__getitem__, order))
                                              for q, e in entries.items()}


def _compare_rows(r, s) -> int:
    """Sign of r - s in the lexicographic order of two pair rows or flat tables."""
    for (a, b), (c, e) in zip(r, s):
        x = a * e - c * b
        if x:
            return x
    return 0


def _fraction_rows(pair_rows) -> tuple[tuple[Fraction, ...], ...]:
    """Pair rows as Fraction rows, one Fraction per distinct pair."""
    fractions = {pair: Fraction(*pair) for pair in set(itertools.chain.from_iterable(pair_rows))}
    return tuple(tuple(map(fractions.__getitem__, row)) for row in pair_rows)


def _carrying(par: StandardParameter, target: StandardParameter, minor_table):
    """(rows, images) per frame of par: its {hyperplane: row} map, and the
    one-line images of the permutation with that frame carrying par to
    target, or None if the frame's rows are not target's.  Rows are
    distinct, so matching every row fixes the slot of every hyperplane."""
    slots = {tuple((x.numerator, x.denominator) for x in row): j
             for j, row in enumerate(target.rows, start=par.d + 2)}
    for frame, rows in _frame_tables(par, minor_table):
        images = None
        if all(row in slots for row in rows.values()):
            images = [0] * (par.n + 1)
            for j, h in enumerate(frame):
                images[h] = j
            for h, row in rows.items():
                images[h] = slots[row]
            images = tuple(images)
        yield rows, images


def _check_scan(par: StandardParameter, budget: int) -> dict:
    """The table {sorted (d+1)-subset: signed minor} of par's dual points;
    refuse a parameter off X_{n,d} (a zero minor), then charge (n+1)!."""
    subsets = itertools.combinations(range(par.n + 1), par.d + 1)
    minor_table = dict(zip(subsets, minors(_integer_duals(par))))
    if not all(minor_table.values()):
        raise ValueError("parameter is not in X_{n,d}")
    size = math.factorial(par.n + 1)
    if size > budget:
        raise BudgetExceeded(size, budget)
    return minor_table


def _stabilizer_images(par: StandardParameter, budget: int) -> list[tuple[int, ...]]:
    return sorted(images for _, images in _carrying(par, par, _check_scan(par, budget)) if images)


def orbit_and_stabilizer(par: StandardParameter, budget: int = DEFAULT_BUDGET) -> OrbitReport:
    """Orbit and stabilizer by the frame scan; exact, budgeted at (n+1)!."""
    row_sets, stabilizer = set(), []
    for rows, images in _carrying(par, par, _check_scan(par, budget)):
        row_sets.add(frozenset(rows.values()))
        if images:
            stabilizer.append(images)
    # sort tables as tuples of row ranks: rows are compared in one sort only
    distinct = sorted(set().union(*row_sets), key=cmp_to_key(_compare_rows))
    rank = {row: i for i, row in enumerate(distinct)}
    tables = sorted(t for row_set in row_sets
                    for t in itertools.permutations([rank[row] for row in row_set]))
    rows = _fraction_rows(distinct)
    return OrbitReport(
        par,
        tuple(StandardParameter._trusted(par.d, par.n, tuple(rows[i] for i in t))
              for t in tables),
        tuple(Permutation(images) for images in sorted(stabilizer)),
        kernel_note(par.n, par.d),
    )


def stabilizer(par: StandardParameter, budget: int = DEFAULT_BUDGET) -> tuple[Permutation, ...]:
    """The stabilizer of ``orbit_and_stabilizer`` without the orbit."""
    return tuple(Permutation(images) for images in _stabilizer_images(par, budget))


KLEIN_ONE_LINE = ((1, 2, 3, 4), (2, 1, 4, 3), (3, 4, 1, 2), (4, 3, 2, 1))


def kernel_of_R(
    n: int,
    d: int,
    samples: int = 12,
    rng: random.Random | None = None,
    budget: int = DEFAULT_BUDGET,
) -> tuple[Permutation, ...]:
    """Permutations acting trivially on every parameter.

    For (n, d) = (3, 1) the kernel is the Klein four-group (a proved fact,
    returned directly).  Otherwise each of up to ``samples`` random
    parameters removes the candidates that move it, so a lone survivor (the
    identity) is exact; if more than one survives, Inconclusive is raised.
    """
    if n < d + 2 and (n, d) != (3, 1):
        raise ValueError("kernel identification needs n >= d+2")
    if (n, d) == (3, 1):
        return tuple(Permutation.from_one_line(p) for p in KLEIN_ONE_LINE)
    size = math.factorial(n + 1)
    if size * max(samples, 1) > budget:
        raise BudgetExceeded(size * max(samples, 1), budget)
    rng = rng or random.Random(0)
    candidates = None  # all of S_{n+1}
    for _ in range(samples):
        fixing = set(_stabilizer_images(random_parameter(d, n, rng), budget))
        candidates = fixing if candidates is None else candidates & fixing
        if len(candidates) == 1:
            break
    count = size if candidates is None else len(candidates)
    if count > 1:
        raise Inconclusive(f"{count} permutations fix all {samples} samples")
    return (Permutation(candidates.pop()),)


@dataclass(frozen=True)
class IsomorphismResult:
    equivalent: bool
    witness: Permutation | None
    note: str | None


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
    scan = _carrying(first, second, _check_scan(first, budget))
    note = None
    if k is not None and (first.d, k, first.n) in EXCEPTIONAL_TYPES:
        note = "linear-category"
    witness = min((images for _, images in scan if images), default=None)
    if witness is None:
        return IsomorphismResult(False, None, note)
    return IsomorphismResult(True, Permutation(witness), note)


def canonical_representative(par: StandardParameter, budget: int = DEFAULT_BUDGET) -> StandardParameter:
    """Lexicographically least orbit element (exact rational order on the
    flattened table); equal for two parameters iff they are orbit-equivalent.
    It is the least over frames of the frame's rows in sorted order: the
    least row of a frame comes first, so only the frames whose least row
    ties the running minimum are sorted in full."""
    minor_table = _check_scan(par, budget)
    if not par.rows:
        return par
    least, ties = None, []
    for _, rows in _frame_tables(par, minor_table):
        rows = list(rows.values())
        low = rows[0]
        for row in rows[1:]:
            if _compare_rows(row, low) < 0:
                low = row
        if least is None or _compare_rows(low, least) < 0:
            least, ties = low, [rows]
        elif low == least:
            ties.append(rows)
    by_row = cmp_to_key(_compare_rows)
    least_table = min((sorted(rows, key=by_row) for rows in ties),
                      key=lambda t: by_row(tuple(itertools.chain.from_iterable(t))))
    return StandardParameter._trusted(par.d, par.n, _fraction_rows(least_table))
