"""The symmetric-group action on the normal-form parameter set.

Reordering the n+1 hyperplanes of an arrangement and renormalizing induces
a bijection of X_{n,d} for every permutation.  The transposition (1 2) and
the full cycle (1 2 ... n+1) also have closed-form expressions on the
parameter table; both paths are implemented and cross-checked in tests.

Composition convention: products of permutations are read left to right
(``(a * b)(x) = b(a(x))``), under which ``act(a * b, p) ==
act(b, act(a, p))``.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

from .arrangement import (
    StandardParameter,
    _frame_normal_form,
    _integer_duals,
    is_standard_parameter,
    random_parameter,
)
from .errors import BudgetExceeded, Inconclusive

__all__ = [
    "Permutation",
    "OrbitReport",
    "IsomorphismResult",
    "act",
    "act_sigma1",
    "act_sigma2",
    "orbit_and_stabilizer",
    "kernel_of_R",
    "are_isomorphic",
    "canonical_representative",
    "DEFAULT_BUDGET",
    "EXCEPTIONAL_TYPES",
]

DEFAULT_BUDGET = 10**6

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


def _act_rows(par: StandardParameter, orders=None):
    """(images, act rows) per one-line tuple (hyperplane i to slot images[i]),
    over all of S_{n+1} in itertools order unless ``orders`` is given."""
    points = _integer_duals(par)
    for images in itertools.permutations(range(par.n + 1)) if orders is None else orders:
        slots = sorted(range(len(images)), key=images.__getitem__)
        yield images, _frame_normal_form([points[i] for i in slots], par.d)[2]


def act(eta: Permutation, par: StandardParameter, *, validate: bool = True) -> StandardParameter:
    """Reorder the canonical arrangement by eta and renormalize.

    Slot j of the reordered arrangement receives hyperplane eta^{-1}(j), so
    hyperplane i moves to slot eta(i).
    """
    if eta.degree != par.n + 1:
        raise ValueError("permutation degree must be n+1")
    if validate and not is_standard_parameter(par):
        raise ValueError("parameter is not in X_{n,d}")
    return StandardParameter(par.d, par.n, next(_act_rows(par, [eta.images]))[1])


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


def _kernel_note(n: int, d: int) -> str | None:
    if (n, d) == (3, 1):
        return ("the action kernel is the Klein four-group "
                "{e, (12)(34), (13)(24), (14)(23)}")
    return None


def orbit_and_stabilizer(par: StandardParameter, budget: int = DEFAULT_BUDGET) -> OrbitReport:
    """Enumerate the full symmetric group; exact but budgeted at (n+1)!."""
    if not is_standard_parameter(par):
        raise ValueError("parameter is not in X_{n,d}")
    size = math.factorial(par.n + 1)
    if size > budget:
        raise BudgetExceeded(size, budget)
    seen = set()
    stabilizer = []
    for images, rows in _act_rows(par):
        seen.add(rows)
        if rows == par.rows:
            stabilizer.append(Permutation(images))
    elements = tuple(StandardParameter(par.d, par.n, rows) for rows in sorted(seen))
    return OrbitReport(par, elements, tuple(stabilizer), _kernel_note(par.n, par.d))


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
    candidates = list(itertools.permutations(range(n + 1)))
    for _ in range(samples):
        par = random_parameter(d, n, rng)
        candidates = [images for images, rows in _act_rows(par, candidates) if rows == par.rows]
        if len(candidates) == 1:
            break
    if len(candidates) > 1:
        raise Inconclusive(f"{len(candidates)} permutations fix all {samples} samples")
    return (Permutation(candidates[0]),)


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
    """Orbit-equality test, with a witnessing permutation when true.

    When a degree ``k`` is supplied and (d; k, n) is one of the exceptional
    triples, the verdict is tagged as a statement about the linear category
    only (the full automorphism groups there are infinite).
    """
    if (first.d, first.n) != (second.d, second.n):
        raise ValueError("parameters must share the same (n, d)")
    if not is_standard_parameter(first) or not is_standard_parameter(second):
        raise ValueError("parameter is not in X_{n,d}")
    size = math.factorial(first.n + 1)
    if size > budget:
        raise BudgetExceeded(size, budget)
    note = None
    if k is not None and (first.d, k, first.n) in EXCEPTIONAL_TYPES:
        note = "linear-category"
    for images, rows in _act_rows(first):
        if rows == second.rows:
            return IsomorphismResult(True, Permutation(images), note)
    return IsomorphismResult(False, None, note)


def canonical_representative(par: StandardParameter, budget: int = DEFAULT_BUDGET) -> StandardParameter:
    """Lexicographically least orbit element (exact rational order on the
    flattened table); equal for two parameters iff they are orbit-equivalent."""
    report = orbit_and_stabilizer(par, budget=budget)
    return min(report.elements, key=lambda p: p.flatten())
