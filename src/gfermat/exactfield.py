"""Cyclotomic scalars and dense exact matrices, with no determinant (the
verifier decides singularity modulo split primes, ``modp``).  The verifier
needs the cyclotomic field; normalization, the equations and the conics use
only ``ExactMatrix`` of rationals.

A cyclotomic number nums(zeta_k) / den is a residue modulo the monic integer
k-th cyclotomic polynomial: integer numerators over one positive
denominator, so sums and products stay in ``int`` and only the inverse (the
conjugates over the norm) divides.  It is serialized as its order k and its
``Fraction`` coefficient list.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache

from .errors import Frozen
from .rational import clear_denominators, rational_to_string

__all__ = ["cyclotomic_polynomial", "CyclotomicScalar", "ExactMatrix"]


# ---------------------------------------------------------------------------
# Cyclotomic polynomials and scalars
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def cyclotomic_polynomial(k: int) -> tuple[int, ...]:
    """Coefficients (ascending) of the monic k-th cyclotomic polynomial.

    Phi_k(x) = Phi_r(x^(k/r)) for the radical r of k, and Phi_r is the
    product of (x^e - 1)^mu(r/e) over the divisors e of r.  Each factor is
    one pass over a power series kept to degree phi(r), since every factor
    has a unit constant term (Arnold and Monagan, "Calculating cyclotomic
    polynomials", Math. Comp. 80, 2011).
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    primes, m, p = [], k, 2
    while p * p <= m:
        if m % p == 0:
            primes.append(p)
            while m % p == 0:
                m //= p
        p += 1
    primes += [m] if m > 1 else []
    r, deg = math.prod(primes), math.prod(p - 1 for p in primes)
    c = [1] + [0] * deg
    for j in range(len(primes) + 1):
        for divisor in itertools.combinations(primes, j):
            e = r // math.prod(divisor)
            # mu = +1: times x^e - 1, descending; mu = -1: over it, ascending
            for i in range(deg, -1, -1) if j % 2 == 0 else range(deg + 1):
                c[i] = (c[i - e] if i >= e else 0) - c[i]
    poly = [0] * (deg * (k // r) + 1)
    poly[:: k // r] = c
    return tuple(poly)


@lru_cache(maxsize=None)
def _roots_of_unity(k: int) -> dict[tuple[int, ...], tuple[int, int]]:
    """The residues of zeta_k^j, 0 <= j < k, modulo Phi_k: each one's
    coefficient vector, signed so that its first nonzero entry is positive,
    maps to (j, sign).  A power of zeta is a unit of Z[zeta], so its vector
    is primitive; for even k, -zeta^j = zeta^(j + k/2) keeps the least j.
    Each step multiplies by zeta: a shift, then one Phi_k reduction of the
    top coefficient."""
    phi = cyclotomic_polynomial(k)
    deg = len(phi) - 1
    table = {}
    vec = [1] + [0] * (deg - 1)
    for j in range(k):
        sign = 1 if next(c for c in vec if c) > 0 else -1
        table.setdefault(tuple(sign * c for c in vec), (j, sign))
        top = vec[-1]
        vec = [0] + vec[:-1]
        if top:
            for i in range(deg):
                vec[i] -= top * phi[i]
    return table


def _reduce(k: int, poly: list, den: int) -> CyclotomicScalar:
    """The scalar (poly mod Phi_k) / den for an integer polynomial ``poly``
    (ascending, reduced in place) and a nonzero integer ``den``: Phi_k is
    monic, so the remainder stays in ``int``; one gcd then makes the
    representation unique."""
    phi = cyclotomic_polynomial(k)
    deg = len(phi) - 1
    for top in range(len(poly) - 1, deg - 1, -1):
        c = poly[top]
        if c:
            for i in range(deg):
                poly[top - deg + i] -= c * phi[i]
    nums = poly[:deg] + [0] * (deg - len(poly))
    g = math.gcd(den, *nums)
    if den < 0:
        g = -g
    if g != 1:
        nums = [c // g for c in nums]
        den //= g
    return CyclotomicScalar(k, tuple(nums), den)


class CyclotomicScalar(Frozen):
    """The element nums(zeta_k) / den of Q(zeta_k).

    ``nums`` holds the deg(Phi_k) integer coefficients of a residue modulo
    Phi_k, and ``den > 0`` shares no factor with all of them, so each value
    has exactly one representation.  Phi_k(zeta) = 0 and zeta^k = 1 exactly.
    """

    __slots__ = ("order", "nums", "den")

    def __init__(self, order: int, nums: tuple[int, ...], den: int = 1):
        set_order, set_nums, set_den = self._setters
        set_order(self, order)
        set_nums(self, nums)
        set_den(self, den)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.den) for c in self.nums)

    @classmethod
    def from_poly(cls, k: int, coeffs) -> CyclotomicScalar:
        ints, den = clear_denominators(coeffs)
        return _reduce(k, list(ints), den)

    @classmethod
    def from_rational(cls, k: int, value) -> CyclotomicScalar:
        value = Fraction(value)
        return _reduce(k, [value.numerator], value.denominator)

    @classmethod
    def zero(cls, k: int) -> CyclotomicScalar:
        return cls.from_rational(k, 0)

    @classmethod
    def one(cls, k: int) -> CyclotomicScalar:
        return cls.from_rational(k, 1)

    @classmethod
    def zeta(cls, k: int, power: int = 1) -> CyclotomicScalar:
        return _reduce(k, [0] * (power % k) + [1], 1)

    def _coerce(self, other):
        if isinstance(other, CyclotomicScalar):
            if other.order != self.order:
                raise ValueError("cyclotomic orders differ")
            return other
        if isinstance(other, (int, Fraction)):
            return CyclotomicScalar.from_rational(self.order, other)
        return None

    def _substitute(self, order: int, step: int) -> CyclotomicScalar:
        """The value with zeta_k replaced by zeta_order^step, reduced modulo
        Phi_order: ``promote`` for step = order / k, and the Galois conjugate
        zeta_k -> zeta_k^step for order = k and a unit step."""
        poly = [0] * order
        for i, c in enumerate(self.nums):
            poly[i * step % order] += c
        return _reduce(order, poly, self.den)

    def __bool__(self):
        return any(self.nums)

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        nums = [a * other.den + b * self.den for a, b in zip(self.nums, other.nums)]
        return _reduce(self.order, nums, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return CyclotomicScalar(self.order, tuple(-a for a in self.nums), self.den)

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
        out = [0] * (2 * len(self.nums) - 1)
        for i, a in enumerate(self.nums):
            if a:
                for j, b in enumerate(other.nums, i):
                    out[j] += a * b
        return _reduce(self.order, out, self.den * other.den)

    __rmul__ = __mul__

    def inverse(self) -> CyclotomicScalar:
        """The product of the other Galois conjugates divided by the norm.

        Phi_k is irreducible over Q, so the norm of a nonzero value (the
        product of all its conjugates) is a nonzero rational."""
        if not self:
            raise ZeroDivisionError("cyclotomic scalar is zero")
        k = self.order
        others = CyclotomicScalar.one(k)
        for step in range(2, k):
            if math.gcd(step, k) == 1:
                others = others * self._substitute(k, step)
        norm = self * others
        return others * Fraction(norm.den, norm.nums[0])

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
            return (not any(self.nums[1:])
                    and self.nums[0] * other.denominator == other.numerator * self.den)
        if not isinstance(other, CyclotomicScalar):
            return NotImplemented
        return self.order == other.order and self.nums == other.nums and self.den == other.den

    def __hash__(self):
        """A rational value hashes as its ``Fraction``, as it compares."""
        if any(self.nums[1:]):
            return hash((self.order, self.nums, self.den))
        return hash(Fraction(self.nums[0], self.den))

    def root_multiple(self) -> tuple[int, int, int] | None:
        """(u, v, j) with the value (u/v) zeta_k^j, u/v in lowest terms and
        v > 0, read off its primitive coefficient vector, or None when it is
        no rational multiple of a root of unity (zero included)."""
        nonzero = [i for i, a in enumerate(self.nums) if a]
        if len(nonzero) == 1:
            j = nonzero[0]
            return self.nums[j], self.den, j
        if not nonzero:
            return None
        g = math.gcd(*self.nums)
        if self.nums[nonzero[0]] < 0:
            g = -g
        found = _roots_of_unity(self.order).get(tuple(a // g for a in self.nums))
        if found is None:
            return None
        j, sign = found
        return sign * g, self.den, j

    def promote(self, order: int) -> CyclotomicScalar:
        """Re-express the value in the cyclotomic field of a multiple order
        via zeta_k = zeta_order^(order/k)."""
        if order == self.order:
            return self
        if order % self.order:
            raise ValueError("can only promote to a multiple of the order")
        return self._substitute(order, order // self.order)

    def to_json(self):
        return {"k": self.order, "coeffs": [rational_to_string(c) for c in self.coeffs]}


# ---------------------------------------------------------------------------
# Dense exact matrices
# ---------------------------------------------------------------------------

class ExactMatrix(Frozen):
    """Immutable dense matrix with row-major entries over an exact field."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: tuple):
        if len(entries) != rows * cols:
            raise ValueError("entry count does not match matrix shape")
        super().__init__(rows, cols, entries)

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

    def to_json(self):
        return [[rational_to_string(e) for e in self.row(i)] for i in range(self.rows)]

