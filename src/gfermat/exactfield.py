"""Cyclotomic scalars and dense exact matrices, the field that the
automorphism verifier, the equations and the conics need.

A cyclotomic number is a residue modulo the k-th cyclotomic polynomial with
``Fraction`` coefficients, serialized as its coefficient list and order k.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .rational import (
    all_subsets_independent,
    clear_denominators,
    rational_from_string,
    rational_to_string,
)

__all__ = [
    "cyclotomic_polynomial",
    "CyclotomicScalar",
    "ExactMatrix",
    "all_maximal_minors_nonzero",
]


# ---------------------------------------------------------------------------
# Cyclotomic polynomials and scalars
# ---------------------------------------------------------------------------

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
def cyclotomic_polynomial(k: int) -> tuple[int, ...]:
    """Coefficients (ascending) of the monic k-th cyclotomic polynomial.

    Computed by exact division of x^k - 1 by the cyclotomic polynomials of
    the proper divisors of k, so that prod_{e | k} Phi_e = x^k - 1.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    poly = tuple([-1] + [0] * (k - 1) + [1])  # x^k - 1
    for e in range(1, k):
        if k % e == 0:
            poly = _poly_divmod_int(poly, cyclotomic_polynomial(e))
    return poly


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
class CyclotomicScalar:
    """Element of Q(zeta_k), stored as a residue modulo Phi_k.

    ``coeffs`` always has length deg(Phi_k); the residue class of the
    indeterminate satisfies Phi_k(zeta) = 0 and zeta^k = 1 exactly.
    """

    order: int
    coeffs: tuple[Fraction, ...]

    @staticmethod
    def _modulus(k):
        return [Fraction(c) for c in cyclotomic_polynomial(k)]

    @classmethod
    def from_poly(cls, k: int, coeffs) -> CyclotomicScalar:
        rem = _poly_rem([Fraction(c) for c in coeffs], cls._modulus(k))
        deg = len(cyclotomic_polynomial(k)) - 1
        rem += [Fraction(0)] * (deg - len(rem))
        return cls(k, tuple(rem))

    @classmethod
    def from_rational(cls, k: int, value) -> CyclotomicScalar:
        return cls.from_poly(k, [Fraction(value)])

    @classmethod
    def zero(cls, k: int) -> CyclotomicScalar:
        return cls.from_rational(k, 0)

    @classmethod
    def one(cls, k: int) -> CyclotomicScalar:
        return cls.from_rational(k, 1)

    @classmethod
    def zeta(cls, k: int, power: int = 1) -> CyclotomicScalar:
        coeffs = [Fraction(0)] * (power % k) + [Fraction(1)]
        return cls.from_poly(k, coeffs)

    def _coerce(self, other):
        if isinstance(other, CyclotomicScalar):
            if other.order != self.order:
                raise ValueError("cyclotomic orders differ")
            return other
        if isinstance(other, (int, Fraction)):
            return CyclotomicScalar.from_rational(self.order, other)
        return None

    def __bool__(self):
        return any(self.coeffs)

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return CyclotomicScalar(
            self.order, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    __radd__ = __add__

    def __neg__(self):
        return CyclotomicScalar(self.order, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return CyclotomicScalar.from_poly(
            self.order, _poly_mul(self.coeffs, other.coeffs)
        )

    __rmul__ = __mul__

    def inverse(self) -> CyclotomicScalar:
        """Inverse modulo Phi_k via the extended Euclidean algorithm.

        Phi_k is irreducible over Q, so every nonzero residue is a unit.
        """
        if not self:
            raise ZeroDivisionError("cyclotomic scalar is zero")
        r0, r1 = self._modulus(self.order), list(self.coeffs)
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while any(r1):
            while r1 and not r1[-1]:
                r1.pop()
            if len(r1) == 1:
                inv = [c / r1[0] for c in s1]
                return CyclotomicScalar.from_poly(self.order, inv)
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

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CyclotomicScalar.from_rational(self.order, other)
        if not isinstance(other, CyclotomicScalar):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.order, self.coeffs))

    def promote(self, order: int) -> CyclotomicScalar:
        """Re-express the value in the cyclotomic field of a multiple order
        via zeta_m = zeta_{order}^{order/m}."""
        if order == self.order:
            return self
        if order % self.order:
            raise ValueError("can only promote to a multiple of the order")
        step = CyclotomicScalar.zeta(order, order // self.order)
        acc = CyclotomicScalar.zero(order)
        power = CyclotomicScalar.one(order)
        for c in self.coeffs:
            acc = acc + power * c
            power = power * step
        return acc

    def to_json(self):
        return {"k": self.order, "coeffs": [rational_to_string(c) for c in self.coeffs]}

    @classmethod
    def from_json(cls, data) -> CyclotomicScalar:
        return cls.from_poly(int(data["k"]), [rational_from_string(c) for c in data["coeffs"]])


# ---------------------------------------------------------------------------
# Dense exact matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExactMatrix:
    """Immutable dense matrix with row-major entries over an exact field."""

    rows: int
    cols: int
    entries: tuple

    def __post_init__(self):
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match matrix shape")

    @classmethod
    def from_rows(cls, rows) -> ExactMatrix:
        rows = [tuple(r) for r in rows]
        if not rows:
            raise ValueError("matrix needs at least one row")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("ragged rows")
        return cls(len(rows), width, tuple(itertools.chain.from_iterable(rows)))

    def entry(self, i: int, j: int):
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def row_list(self):
        return [list(self.row(i)) for i in range(self.rows)]

    def matvec(self, vec) -> tuple:
        vec = tuple(vec)
        if len(vec) != self.cols:
            raise ValueError("vector length does not match matrix width")
        return tuple(
            sum((self.entry(i, j) * vec[j] for j in range(self.cols)),
                start=Fraction(0) * self.entry(i, 0))
            for i in range(self.rows)
        )

    def det(self):
        """Determinant by fraction-free (Bareiss) elimination.

        Each division is exact: the quotient is a minor of the matrix.  When
        both operands are ``int`` every entry of that minor is, so ``//``
        keeps the result an exact ``int``."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        a = self.row_list()
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
                    return _zero_like(self.entries[0])
            whole = type(prev) is int
            for r in range(i + 1, n):
                for c in range(i + 1, n):
                    x = a[r][c] * a[i][i] - a[r][i] * a[i][c]
                    a[r][c] = x // prev if whole and type(x) is int else x / prev
                a[r][i] = 0
            prev = a[i][i]
        return a[n - 1][n - 1] if sign > 0 else -a[n - 1][n - 1]

    def to_json(self):
        return [[_scalar_to_json(e) for e in self.row(i)] for i in range(self.rows)]


def _zero_like(sample):
    """The zero of ``sample``'s own type: ``int``, ``Fraction`` or cyclotomic."""
    return sample * 0


def _scalar_to_json(value):
    if isinstance(value, CyclotomicScalar):
        return value.to_json()
    return rational_to_string(value)


# ---------------------------------------------------------------------------
# Minors of rational matrices
# ---------------------------------------------------------------------------

def all_maximal_minors_nonzero(matrix: ExactMatrix, s: int) -> bool:
    """True iff every s-by-s minor of the rational ``matrix`` is nonzero (rows
    cleared to integers: that scales each minor by a nonzero factor)."""
    if s < 1 or s > min(matrix.rows, matrix.cols):
        raise ValueError("minor size out of range")
    rows = [clear_denominators(matrix.row(i))[0] for i in range(matrix.rows)]
    return all(all_subsets_independent(list(zip(*sub))) for sub in itertools.combinations(rows, s))
