"""Worked constructions: Kummer parameters, line restriction, tangent conics.

All three constructions stay inside exact rational arithmetic:

* the desingularized Kummer surface of the Jacobian of y^2 = (x-a_1)...(x-a_6)
  is the branched cover over six explicit lines, whose normal form is a
  cross-ratio table in the a_i;
* restricting a surface of type (2; k, n) to a line in general position with
  the branch lines produces a curve of type (k, n) whose parameter is read
  off from the n+1 intersection points;
* the smooth conics tangent to the four canonical lines form a rational
  one-parameter family, and a line with dual point u is tangent iff
  u . adj(Q) . u = 0.  Q is symmetric, so the rows of adj(Q) are r1 x r2,
  r2 x r0, r0 x r1 for Q's rows r0, r1, r2, and det Q = r0 . (r1 x r2).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .arrangement import (
    StandardParameter,
    _integer_duals,
    is_general_position,
    is_standard_parameter,
)
from .errors import NotInGeneralPosition, TangencyError
from .exactfield import ExactMatrix
from .rational import projective_normalize, rational_to_string

__all__ = [
    "Conic",
    "LineRestriction",
    "ConicCurveResult",
    "kummer_parameters",
    "restrict_to_line",
    "tangent_conic",
    "conic_curve_parameters",
]


@dataclass(frozen=True)
class Conic:
    """A smooth conic a1 t1^2 + a2 t2^2 + a3 t3^2 + a4 t1 t2 + a5 t1 t3 + a6 t2 t3."""

    coefficients: tuple[Fraction, ...]

    def __post_init__(self):
        coeffs = tuple(Fraction(c) for c in self.coefficients)
        if len(coeffs) != 6:
            raise ValueError("a conic needs six coefficients")
        object.__setattr__(self, "coefficients", coeffs)
        r0, r1, r2 = self.matrix().row_list()
        if sum(a * b for a, b in zip(r0, _cross(r1, r2))) == 0:
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


def _cross(u, v):
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def kummer_parameters(alphas) -> StandardParameter:
    """Normal form in X_{5,2} of the six Kummer branch lines.

    Each table entry is a cross-ratio of four of the six branch values, so
    the output is invariant under affine rescaling a_i -> c a_i + e.
    """
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


@dataclass(frozen=True)
class LineRestriction:
    """Restriction of a surface to a line: curve parameter plus the n+1
    intersection points of the line with the branch lines (in P^2)."""

    eta: StandardParameter
    points: tuple[tuple[Fraction, ...], ...]
    singular: bool

    def to_json(self):
        return {
            "eta": self.eta.to_json(),
            "points": [[rational_to_string(c) for c in p] for p in self.points],
            "singular": self.singular,
        }


def restrict_to_line(par: StandardParameter, rho, *, allow_singular: bool = False) -> LineRestriction:
    """Parameter of the curve cut out over the line with dual point rho.

    Requires the augmented collection (branch lines plus the new line) to be
    in general position; with ``allow_singular`` the parameter is still
    emitted, tagged, when the closed formulas stay finite (the fiber is then
    a singular curve).
    """
    if par.d != 2:
        raise ValueError("line restriction starts from a surface parameter (d = 2)")
    if not is_standard_parameter(par):
        raise ValueError("parameter is not in X_{n,2}")
    rho = projective_normalize(tuple(Fraction(c) for c in rho))
    if len(rho) != 3:
        raise ValueError("the line needs a dual point in P^2")
    duals = _integer_duals(par)  # every use below is invariant under scaling a dual
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


def _bracket(p, q):
    return p[0] * q[1] - p[1] * q[0]


@dataclass(frozen=True)
class ConicCurveResult:
    eta: StandardParameter
    tangency_points: tuple[tuple[Fraction, ...], ...]
    anchors: tuple[int, int, int]

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

    The n+1 tangency points are the poles adj(Q) . u of the line duals u
    (all rational).  The conic is identified with the projective line by the
    pencil through the first anchor point; the three anchor points go to
    infinity, 0 and 1 and the remaining n-2 cross-ratio values are returned
    in index order.
    """
    if par.d != 2:
        raise ValueError("conic restriction starts from a surface parameter (d = 2)")
    if not is_standard_parameter(par):
        raise ValueError("parameter is not in X_{n,2}")
    conic = tangent_conic(a)
    adj = conic.dual_matrix()
    duals = _integer_duals(par)  # every use below is invariant under scaling a dual
    for j, q in enumerate(duals, start=1):
        if sum(a * b for a, b in zip(q, adj.matvec(q))):
            raise TangencyError(j)
    poles = [projective_normalize(adj.matvec(q)) for q in duals]
    if len(set(poles)) != len(poles):
        raise ValueError("tangency points are not distinct")
    anchors = tuple(int(i) for i in anchors)
    if len(set(anchors)) != 3 or not all(1 <= i <= par.n + 1 for i in anchors):
        raise ValueError("anchors must be three distinct 1-based indices")
    center = poles[anchors[0] - 1]
    qmatrix = conic.matrix()

    def pencil_line(point):
        if point == center:
            return qmatrix.matvec(center)  # tangent line at the center
        return _cross(center, point)

    # Lines u through the center satisfy u . center = 0; dropping the pivot
    # coordinate (the first nonzero one of the center) is a linear
    # isomorphism of that plane onto P^1.
    pivot = next(i for i, c in enumerate(center) if c != 0)
    others = [i for i in range(3) if i != pivot]

    def pencil_coords(line):
        return (line[others[0]], line[others[1]])

    coords = [pencil_coords(pencil_line(p)) for p in poles]
    z_inf = coords[anchors[0] - 1]
    z_zero = coords[anchors[1] - 1]
    z_one = coords[anchors[2] - 1]

    def moebius(z):
        num = _bracket(z, z_zero) * _bracket(z_one, z_inf)
        den = _bracket(z, z_inf) * _bracket(z_one, z_zero)
        return num / den

    values = [
        moebius(coords[j])
        for j in range(par.n + 1)
        if (j + 1) not in anchors
    ]
    eta = StandardParameter(1, par.n, tuple((v,) for v in values))
    return ConicCurveResult(eta, tuple(poles), anchors)
