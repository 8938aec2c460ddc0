"""Hyperplane arrangements in P^d and their normal forms.

A hyperplane is stored through its dual point: the hyperplane with dual
point q = [r_1 : ... : r_{d+1}] is {r_1 t_1 + ... + r_{d+1} t_{d+1} = 0}.
An ordered arrangement of n+1 hyperplanes in general position has a unique
projective normal form in which the first d+2 dual points become the
standard frame e_1, ..., e_{d+1}, (1,...,1); the remaining points then read
off the standard parameter table (rows [l_{i,1} : ... : l_{i,d} : 1]).

General position is the rank condition: every d+1 of the dual points are
linearly independent, i.e. every maximal minor of the (d+1) x (n+1) dual
matrix is nonzero.  (For s < d+1 this already forces any s of the
hyperplanes to meet in a (d-s)-plane.)  It is decided on integer points:
clearing a point's denominators scales each minor through it by a nonzero
integer, which cannot turn the minor zero or nonzero.

Normal forms are computed on integers.  Dual points are cleared to integer
vectors, and one fraction-free Gauss-Jordan elimination of the frame B (the
first d+1 points as columns) against the others gives M c, M = D B^{-1}
(D = +-det B), whose entries are signed minors (Cramer).  The table entries
(M q)_j (M a)_d / ((M a)_j (M q)_d), a the (d+2)-nd point, do not change
when any point, or D, is scaled.  ``normalize`` also eliminates the identity
to read T_ij = M_ij / (M a)_i, in which only the scale of a survives.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from itertools import repeat

from .errors import Frozen, NotInGeneralPosition, ValidationError
from .rational import (
    clear_denominators,
    fraction_free_solve,
    minors,
    projective_normalize,
    rational_from_string,
    rational_to_string,
)

__all__ = [
    "Hyperplane",
    "Arrangement",
    "StandardParameter",
    "is_general_position",
    "normalize",
    "is_standard_parameter",
]


class Hyperplane(Frozen):
    """A hyperplane of P^d given by its dual point in canonical form."""

    __slots__ = ("dual_point",)

    def __init__(self, dual_point: tuple[Fraction, ...]):
        super().__init__(projective_normalize(tuple(Fraction(c) for c in dual_point)))

    @property
    def dimension(self) -> int:
        return len(self.dual_point) - 1


class Arrangement(Frozen):
    """An ordered tuple of n+1 hyperplanes of P^d, n >= d+1."""

    __slots__ = ("d", "hyperplanes")

    def __init__(self, d: int, hyperplanes: tuple[Hyperplane, ...]):
        if d < 1:
            raise ValueError("ambient dimension must be >= 1")
        planes = tuple(
            h if isinstance(h, Hyperplane) else Hyperplane(tuple(h))
            for h in hyperplanes
        )
        if any(h.dimension != d for h in planes):
            raise ValueError("hyperplane dual points must have length d+1")
        if len(planes) < d + 2:
            raise ValueError("an arrangement needs at least d+2 hyperplanes")
        super().__init__(d, planes)

    @property
    def n(self) -> int:
        return len(self.hyperplanes) - 1

    @property
    def duals(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(h.dual_point for h in self.hyperplanes)

    @classmethod
    def from_json(cls, data) -> Arrangement:
        """The arrangement payload (docs/SCHEMAS.md); a malformed one, or
        points that do not make an arrangement, is a ``ValidationError``."""
        if not isinstance(data, dict) or "d" not in data or "points" not in data:
            raise ValidationError("arrangement payload needs 'd' and 'points'")
        if not isinstance(data["points"], list):
            raise ValidationError("'points' must be a list of dual points")
        d = _json_int(data, "d")
        try:
            points = [tuple(rational_from_string(c) for c in q) for q in data["points"]]
            return cls(d, tuple(Hyperplane(q) for q in points))
        except ValidationError:
            raise
        except (TypeError, ValueError) as exc:  # TypeError: a point that is a number
            raise ValidationError(str(exc)) from exc


class StandardParameter(Frozen):
    """A point of the normal-form parameter set X_{n,d}.

    ``rows`` holds the (n-d-1) x d table; row i is the affine part of the
    dual point [l_{i,1} : ... : l_{i,d} : 1] of hyperplane d+2+i.  The table
    is empty when n = d+1.  Column j (the tuple of the j-th entries across
    rows) matches the coordinate-wise presentation used by the closed-form
    generator actions.
    """

    __slots__ = ("d", "n", "rows")

    def __init__(self, d: int, n: int, rows: tuple[tuple[Fraction, ...], ...]):
        if d < 1 or n < d + 1:
            raise ValueError("need d >= 1 and n >= d+1")
        rows = tuple(
            tuple(x if type(x) is Fraction else Fraction(x) for x in row) for row in rows
        )
        if len(rows) != n - d - 1:
            raise ValueError("parameter table must have n-d-1 rows")
        if any(len(row) != d for row in rows):
            raise ValueError("parameter table rows must have d entries")
        super().__init__(d, n, rows)

    @classmethod
    def _trusted(cls, d: int, n: int, rows) -> StandardParameter:
        """A parameter built without the checks of ``__init__``: ``rows``
        must already be a tuple of n-d-1 tuples of d ``Fraction``s."""
        par = object.__new__(cls)
        set_d, set_n, set_rows = cls._setters
        set_d(par, d)
        set_n(par, n)
        set_rows(par, rows)
        return par

    @classmethod
    def _trusted_all(cls, d: int, n: int, tables: list) -> tuple[StandardParameter, ...]:
        """``_trusted(d, n, rows)`` for each rows of ``tables``, mapped in C."""
        pars = tuple(map(object.__new__, repeat(cls, len(tables))))
        for set_field, values in zip(cls._setters, (repeat(d), repeat(n), tables)):
            any(map(set_field, pars, values))  # a setter returns None
        return pars

    @property
    def columns(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(zip(*self.rows)) if self.rows else tuple(() for _ in range(self.d))

    def flatten(self) -> tuple[Fraction, ...]:
        return tuple(itertools.chain.from_iterable(self.rows))

    def to_json(self):
        return {
            "d": self.d,
            "n": self.n,
            "lambda": [[rational_to_string(x) for x in row] for row in self.rows],
        }

    @classmethod
    def from_json(cls, data) -> StandardParameter:
        """The parameter payload (docs/SCHEMAS.md); a malformed one, or a
        table of the wrong shape, is a ``ValidationError``."""
        if not isinstance(data, dict):
            raise ValidationError("parameter payload must be an object")
        for key in ("d", "n", "lambda"):
            if key not in data:
                raise ValidationError(f"parameter payload is missing {key!r}")
        rows = data["lambda"]
        if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
            raise ValidationError("'lambda' must be a list of rows")
        d, n = _json_int(data, "d"), _json_int(data, "n")
        try:
            return cls(d, n, tuple(tuple(rational_from_string(x) for x in row) for row in rows))
        except ValidationError:
            raise
        except ValueError as exc:
            raise ValidationError(str(exc)) from exc


def _json_int(data, key: str) -> int:
    """``data[key]``, a JSON integer; a float or bool is refused rather than
    truncated."""
    value = data[key]
    if type(value) is not int:
        raise ValidationError(f"{key!r} must be a JSON integer, got {value!r}")
    return value


def is_general_position(points, d: int) -> bool:
    """True iff every d+1 of the dual points are linearly independent.

    Rejects (raises) vectors of the wrong length, zero vectors, and lists
    with fewer than d+2 points.
    """
    pts = [clear_denominators(p)[0] for p in points]
    if len(pts) < d + 2:
        raise ValueError("need at least d+2 points")
    for p in pts:
        if len(p) != d + 1:
            raise ValueError("points must be vectors of length d+1")
        if not any(p):
            raise ValueError("the zero vector is not a projective point")
    return all(minors(pts))


def normalize(arr: Arrangement, *, check: bool = True):
    """Return (T, parameter) for a general-position arrangement.

    T is the (d+1) x (d+1) matrix acting on dual points (as columns): it
    maps the j-th dual point to a multiple of e_j for j = 1, ..., d+1, the
    (d+2)-nd to exactly (1, ..., 1), and the remaining ones to multiples of
    [l_{i,1} : ... : l_{i,d} : 1].  T is unique up to a global scalar.

    Computed on integers (module docstring); the anchor's common denominator
    is multiplied back into T.  The check sweeps the minors of the same
    cleared points (``Arrangement`` has already checked their lengths, their
    count and that none is zero).  With ``check=False`` a singular frame
    raises ValueError and a zero in M a or in a table denominator
    ZeroDivisionError.
    """
    from .exactfield import ExactMatrix

    d = arr.d
    points, dens = zip(*(clear_denominators(q) for q in arr.duals))
    if check and not all(minors(points)):
        raise NotInGeneralPosition("arrangement is not in general position")
    identity = [tuple(int(i == j) for i in range(d + 1)) for j in range(d + 1)]
    m, anchor, rows = _frame_normal_form(points, d, identity)
    transform = ExactMatrix.from_rows(
        [[Fraction(x * dens[d + 1], a) for x in row] for row, a in zip(m, anchor)])
    return transform, StandardParameter(d, arr.n, rows)


def _frame_normal_form(points, d: int, head):
    """(rows of M H, M a, table rows) for integer dual points and the
    columns H, from one elimination of [B | H | a | Q] (module docstring)."""
    solved = fraction_free_solve(points[: d + 1], [*head, *points[d + 1:]])
    anchor, *images = list(zip(*solved))[len(head):]
    if not all(anchor):
        raise ZeroDivisionError("the (d+2)-nd dual point lies on a frame hyperplane")
    rows = tuple(tuple(Fraction(b[j] * anchor[d], anchor[j] * b[d]) for j in range(d))
                 for b in images)
    return [row[: len(head)] for row in solved], anchor, rows


def _integer_duals(par: StandardParameter) -> list[tuple[int, ...]]:
    """Dual points of par's canonical arrangement, each row cleared by its denominators' lcm."""
    d = par.d
    points = [(0,) * j + (1,) + (0,) * (d - j) for j in range(d + 1)] + [(1,) * (d + 1)]
    for row in par.rows:
        den = math.lcm(*[x.denominator for x in row])
        points.append(tuple([x.numerator * (den // x.denominator) for x in row] + [den]))
    return points


def _checked_duals(par: StandardParameter,
                   message: str = "parameter is not in X_{n,d}") -> list[tuple[int, ...]]:
    """par's integer dual points (``_integer_duals``) once their maximal
    minors are swept; a zero minor, a parameter off X_{n,d}, raises
    ``ValueError(message)``.  Every membership refusal of the package."""
    points = _integer_duals(par)
    if not all(minors(points)):
        raise ValueError(message)
    return points


def is_standard_parameter(par: StandardParameter) -> bool:
    """Membership test for X_{n,d} (general position of the derived duals)."""
    return all(minors(_integer_duals(par)))

