"""Worked constructions: Kummer parameters, line restriction, tangent conics.

Each ends with n+1 points on P^1 and reports their parameter in X_{n,1}:
``_coordinates`` sends the anchors (i, z, o) to infinity, 0 and 1 and every
other point p to [p,z][o,i] / ([p,i][o,z]).  A bracket [p,q] is any function
of two points fixed up to one common factor, which cancels.  Only the
bracket differs.  Each point (and t below) appears once above and once
below the line, so its scale cancels too: every bracket is taken on points
cleared to integers, and each value is one ``Fraction`` of two integers.

* the desingularized Kummer surface of the Jacobian of y^2 = (x-a_1)...(x-a_6)
  is the branched cover over six explicit lines, whose normal form is a
  table of cross-ratios of the a_i; the bracket is p - q;
* a line rho in general position with the branch lines of a surface of type
  (2; k, n) cuts out a curve of type (k, n) through the points rho x q; the
  bracket of two of them is rho . (q x q').  A parameter in X_{n,2} already
  has every three branch lines independent, so the augmented collection is
  in general position exactly when the C(n+1, 2) minors through the new
  line, the brackets rho . (q x q') = (rho x q) . q', are all nonzero;
* the smooth conics tangent to the four canonical lines form a rational
  one-parameter family, and a line with dual point u is tangent iff
  u . adj(Q) . u = 0.  Q is symmetric, so the rows of adj(Q) are r1 x r2,
  r2 x r0, r0 x r1 for Q's rows r0, r1, r2, and det Q = r0 . (r1 x r2).
  All of it is read off the integer rows of 2sQ, s the lcm of the
  coefficients' denominators: det and adj only gain nonzero factors, so
  every zero test and every point up to scale stays.  Four points of a
  conic have the cross-ratio of the chords joining them to a fifth point c
  of it: the bracket is c . (p x q), and -t . p for the chord from p to c
  itself, where t = Q c is the tangent at c.
"""

from __future__ import annotations

import operator
from fractions import Fraction

from .arrangement import (
    StandardParameter,
    _integer_duals,
    is_standard_parameter,
)
from .errors import Frozen, NotInGeneralPosition, TangencyError
from .exactfield import ExactMatrix
from .rational import clear_denominators, projective_normalize, rational_to_string

__all__ = [
    "Conic",
    "LineRestriction",
    "ConicCurveResult",
    "kummer_parameters",
    "restrict_to_line",
    "tangent_conic",
    "conic_curve_parameters",
]


class Conic(Frozen):
    """A smooth conic a1 t1^2 + a2 t2^2 + a3 t3^2 + a4 t1 t2 + a5 t1 t3 + a6 t2 t3."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: tuple[Fraction, ...]):
        coeffs = tuple(Fraction(c) for c in coefficients)
        if len(coeffs) != 6:
            raise ValueError("a conic needs six coefficients")
        super().__init__(coeffs)
        r0, r1, r2 = _integer_rows(coeffs)
        if _dot(r0, _cross(r1, r2)) == 0:
            raise ValueError("the conic is singular")

    def matrix(self) -> ExactMatrix:
        a1, a2, a3, a4, a5, a6 = self.coefficients
        half = Fraction(1, 2)
        return ExactMatrix.from_rows([
            [a1, a4 * half, a5 * half],
            [a4 * half, a2, a6 * half],
            [a5 * half, a6 * half, a3],
        ])

    def dual_matrix(self) -> ExactMatrix:
        r0, r1, r2 = self.matrix().row_list()
        return ExactMatrix.from_rows([_cross(r1, r2), _cross(r2, r0), _cross(r0, r1)])

    def to_json(self):
        return {"coefficients": [rational_to_string(c) for c in self.coefficients]}


def _integer_rows(coefficients):
    """The rows of 2sQ for the conic's matrix Q, s the lcm of the
    coefficients' denominators: integers, and a positive multiple of Q."""
    (a1, a2, a3, a4, a5, a6), _ = clear_denominators(coefficients)
    return (2 * a1, a4, a5), (a4, 2 * a2, a6), (a5, a6, 2 * a3)


def _cross(u, v):
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def _dot(u, v):
    return sum(map(operator.mul, u, v))


def _coordinates(bracket, points, anchors):
    """[p,z][o,i] / ([p,i][o,z]) for each point p but the anchors (0-based
    indices i, z, o), in index order; each value is one ``Fraction``, and a
    zero denominator raises ``ZeroDivisionError``."""
    i, z, o = (points[a] for a in anchors)
    oi, oz = bracket(o, i), bracket(o, z)
    return [
        Fraction(bracket(p, z) * oi, bracket(p, i) * oz)
        for j, p in enumerate(points)
        if j not in anchors
    ]


def kummer_parameters(alphas) -> StandardParameter:
    """Normal form in X_{5,2} of the six Kummer branch lines.

    Row r sends a_{4+r}, a_4 and a_3 to infinity, 0 and 1 and keeps the
    images of a_1 and a_2.  Each entry is a cross-ratio of four of the six
    branch values, so the output is invariant under affine rescaling
    a_i -> c a_i + e.
    """
    a = tuple(Fraction(x) for x in alphas)
    if len(a) != 6:
        raise ValueError("need six branch values")
    if len(set(a)) != 6:
        raise ValueError("branch values must be pairwise distinct")
    ints = clear_denominators(a)[0]  # a scaling, which keeps every cross-ratio
    rows = tuple(tuple(_coordinates(operator.sub, ints, (i, 3, 2))[:2]) for i in (4, 5))
    par = StandardParameter(2, 5, rows)
    if not is_standard_parameter(par):
        raise ValueError("branch values produce a degenerate line collection")
    return par


class LineRestriction(Frozen):
    """Restriction of a surface to a line: curve parameter plus the n+1
    intersection points of the line with the branch lines (in P^2)."""

    __slots__ = ("eta", "points", "singular")

    def to_json(self):
        return {
            "eta": self.eta.to_json(),
            "points": [[rational_to_string(c) for c in p] for p in self.points],
            "singular": self.singular,
        }


def restrict_to_line(par: StandardParameter, rho, *, allow_singular: bool = False) -> LineRestriction:
    """Parameter of the curve cut out over the line with dual point rho.

    The line meets branch line q at rho x q; lines 1, 2 and 3 go to
    infinity, 0 and 1.  Requires the augmented collection (branch lines
    plus the new line) to be in general position; with ``allow_singular``
    the parameter is still emitted, tagged, when no cross-ratio denominator
    vanishes (the fiber is then a singular curve).
    """
    if par.d != 2:
        raise ValueError("line restriction starts from a surface parameter (d = 2)")
    if not is_standard_parameter(par):
        raise ValueError("parameter is not in X_{n,2}")
    rho = projective_normalize(tuple(Fraction(c) for c in rho))
    if len(rho) != 3:
        raise ValueError("the line needs a dual point in P^2")
    duals = _integer_duals(par)  # every use below is invariant under scaling a dual
    rho = clear_denominators(rho)[0]
    meets = [_cross(rho, q) for q in duals]
    # every three branch lines are independent, so only the triples through
    # the new line are left: their minors are rho . (q x r) = (rho x q) . r
    general = all(_dot(m, r) for i, m in enumerate(meets) for r in duals[i + 1:])
    if not general and not allow_singular:
        raise NotInGeneralPosition(
            "the line is not in general position with the branch lines"
        )
    try:
        values = _coordinates(lambda q, r: _dot(rho, _cross(q, r)), duals, (0, 1, 2))
    except ZeroDivisionError as exc:
        raise NotInGeneralPosition(
            "restriction formulas degenerate for this line"
        ) from exc
    eta = StandardParameter(1, par.n, tuple((v,) for v in values))
    points = tuple(map(projective_normalize, meets))
    return LineRestriction(eta, points, not general)


def tangent_conic(a) -> Conic:
    """The smooth conic of the pencil tangent to the four canonical lines.

    Coefficients (4, a^2, (2-a)^2, 4a, 4(2-a), -2a(2-a)); the parameter
    values 0 and 2 give double lines and are rejected.
    """
    a = Fraction(a)
    if a in (0, 2):
        raise ValueError("parameter values 0 and 2 give a non-smooth conic")
    b = 2 - a
    return Conic((
        Fraction(4), a * a, b * b, 4 * a, 4 * b, -2 * a * b,
    ))


class ConicCurveResult(Frozen):
    __slots__ = ("eta", "tangency_points", "anchors")

    def to_json(self):
        return {
            "eta": self.eta.to_json(),
            "tangency_points": [
                [rational_to_string(c) for c in p] for p in self.tangency_points
            ],
            "anchors": list(self.anchors),
        }


def conic_curve_parameters(a, par: StandardParameter, anchors=(1, 2, 3)) -> ConicCurveResult:
    """Curve parameter attached to a surface whose lines are tangent to the
    conic of parameter ``a``.

    The n+1 tangency points are the poles adj(Q) . u of the line duals u,
    taken on integers and normalized only for the report.  The conic is identified with the projective line by the
    chords through the first anchor point; the three anchor points go to
    infinity, 0 and 1 and the remaining n-2 cross-ratio values are returned
    in index order.  No denominator vanishes: three distinct points of a
    smooth conic are never collinear, and its tangent at the first anchor
    meets it only there.  ``anchors`` are three distinct 1-based indices of
    type ``int``; any other anchor is refused, not truncated.
    """
    if par.d != 2:
        raise ValueError("conic restriction starts from a surface parameter (d = 2)")
    if not is_standard_parameter(par):
        raise ValueError("parameter is not in X_{n,2}")
    r0, r1, r2 = _integer_rows(tangent_conic(a).coefficients)  # 2sQ
    adj = (_cross(r1, r2), _cross(r2, r0), _cross(r0, r1))  # (2s)^2 adj(Q), symmetric
    duals = _integer_duals(par)  # every use below is invariant under scaling a dual
    points = []
    for j, q in enumerate(duals, start=1):
        pole = (_dot(adj[0], q), _dot(adj[1], q), _dot(adj[2], q))
        if _dot(q, pole):
            raise TangencyError(j)
        # the duals of par in X_{n,2} are pairwise non-proportional and adj(Q)
        # is invertible, so the poles are distinct tuples
        points.append(pole)
    anchors = tuple(anchors)
    if len(set(anchors)) != 3 or not all(type(i) is int and 1 <= i <= par.n + 1 for i in anchors):
        raise ValueError("anchors must be three distinct 1-based indices")
    c = points[anchors[0] - 1]
    t = (_dot(r0, c), _dot(r1, c), _dot(r2, c))  # the tangent at c

    def bracket(p, q):
        return -_dot(t, p) if q == c else _dot(c, _cross(p, q))

    values = _coordinates(bracket, points, tuple(i - 1 for i in anchors))
    eta = StandardParameter(1, par.n, tuple((v,) for v in values))
    return ConicCurveResult(eta, tuple(map(projective_normalize, points)), anchors)
