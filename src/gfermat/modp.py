"""Residues modulo the primes that split completely in Q(zeta_L), for the
automorphism verifier's span certificate and its singularity proof.

A prime p = 1 + mL splits completely in Q(zeta_L) (Washington,
*Introduction to Cyclotomic Fields*, GTM 83, Thm 2.13): F_p holds a
primitive L-th root of unity g, a root of Phi_L mod p, so sending zeta_L to
g is a ring homomorphism from the values of Q(zeta_L) whose denominators p
does not divide onto F_p.  A value of Q(zeta_m) with m | L is read in
Q(zeta_L) through zeta_m = zeta_L^(L/m), so it goes to g^(L/m).
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import chain
from operator import mul

from .exactfield import cyclotomic_polynomial
from .rational import minors

__all__ = ["is_prime", "split_primes", "root_powers", "residue", "det_mod", "is_singular"]

_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# the least strong pseudoprime to all twelve bases (Sorenson and Webster,
# "Strong pseudoprimes to twelve prime bases", Math. Comp. 86, 2017)
EXACT_BELOW = 318665857834031151167461


def is_prime(n: int) -> bool:
    """Miller-Rabin to the first twelve prime bases, exact for every
    n < ``EXACT_BELOW``; a larger n raises ``ValueError``."""
    if n >= EXACT_BELOW:
        raise ValueError("primality is decided only below 3.18e23")
    if n < 2:
        return False
    for q in _BASES:
        if n % q == 0:
            return n == q
    s, t = 0, n - 1
    while t % 2 == 0:
        s, t = s + 1, t // 2
    for a in _BASES:
        x = pow(a, t, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=None)
def _next_split_prime(order: int, above: int) -> tuple[int, int]:
    """(p, g): the least prime p = 1 + m * order above ``above`` and the
    root g = a^((p-1)/order) of Phi_order mod p for the least a >= 2.  As p
    does not divide ``order``, x^order - 1 has distinct roots mod p, so the
    roots of Phi_order mod p are exactly its primitive order-th roots of
    unity; the units of F_p are cyclic, so some a < p gives one."""
    p = above - (above - 1) % order + order
    while not is_prime(p):
        p += order
    phi = cyclotomic_polynomial(order)
    a = 2
    while True:
        g = pow(a, (p - 1) // order, p)
        value = 0
        for c in reversed(phi):
            value = (value * g + c) % p
        if not value:
            return p, g
        a += 1


def split_primes(order: int, values=()):
    """The pairs (p, g), in increasing order of p, of the primes p = 1 + m *
    order above 2^40 that divide the denominator of none of ``values`` (each
    an ``int``, a ``Fraction`` or a ``CyclotomicScalar``), each with a
    primitive order-th root of unity g mod p.  A search past ``EXACT_BELOW``
    ends in ``is_prime``'s ``ValueError``."""
    denominators = {getattr(x, "den", None) or x.denominator for x in values} - {1}
    found = _next_split_prime(order, 1 << 40)
    while True:
        if not any(den % found[0] == 0 for den in denominators):
            yield found
        found = _next_split_prime(order, found[0])


def root_powers(g: int, p: int, order: int) -> list[int]:
    """The table [g^i mod p for 0 <= i < order] that ``residue`` reads."""
    table = [1] * order
    for i in range(1, order):
        table[i] = table[i - 1] * g % p
    return table


def residue(x, p: int, powers) -> int:
    """The image in F_p of an ``int``, a ``Fraction`` or a
    ``CyclotomicScalar`` whose order divides L = len(powers), for zeta_L -> g
    and ``powers`` the table of g^i mod p, 0 <= i < L (``root_powers``); p
    must not divide its denominator.  A value of order m reads zeta_m^i =
    g^(iL/m) off every (L/m)-th entry of the table."""
    nums = getattr(x, "nums", None)
    if nums is None:
        return x.numerator * pow(x.denominator, -1, p) % p
    return sum(map(mul, nums, powers[:: len(powers) // x.order])) * pow(x.den, -1, p) % p


def det_mod(rows, p: int) -> int:
    """The determinant mod p of a square matrix of residues, by Gaussian
    elimination over F_p."""
    a = [list(row) for row in rows]
    det = 1
    for i in range(len(a)):
        pivot = next((r for r in range(i, len(a)) if a[r][i]), None)
        if pivot is None:
            return 0
        if pivot != i:
            a[i], a[pivot] = a[pivot], a[i]
            det = -det
        head = a[i]
        det = det * head[i] % p
        inv = pow(head[i], -1, p)
        for r in range(i + 1, len(a)):
            f = a[r][i] * inv % p
            if f:
                a[r] = [(x - f * y) % p for x, y in zip(a[r], head)]
    return det % p


def is_singular(rows, order: int) -> bool:
    """Whether the square matrix ``rows``, of ``int``, ``Fraction`` and
    ``CyclotomicScalar`` entries whose orders divide L = ``order``, is
    singular, from its determinants modulo the split primes in turn.

    Modulo p the determinant is evaluated at every root g^j of Phi_L, j a
    unit mod L and first j = 1; a nonzero value proves it nonzero.  Scaled by
    the lcm of its denominators, each row lies in Z[zeta_L], and every
    embedding sigma has |sigma(a)| <= ||a||_1, the sum of the absolute values
    of a's coefficients, so |sigma(det)| <= B with B^2 = prod_i sum_j
    ||a_ij||_1^2 (Hadamard).  A determinant zero at all phi(L) roots lies in
    pZ[zeta_L], so p^phi(L) divides its norm, an integer of absolute value at
    most B^phi(L): it is 0 once the product of such primes passes B.  For
    L = 1 a zero at the first prime goes to the one integer determinant of
    the scaled rows (``rational.minors``) instead."""
    units = [j for j in range(order) if math.gcd(j, order) == 1]
    product, bound = 1, None
    for p, g in split_primes(order, chain.from_iterable(rows)):
        base = root_powers(g, p, order)
        for j in units:
            # the powers of the root g^j are g^(ji mod L); L = 1 has j = 0
            powers = list(map(base.__getitem__, map(order.__rmod__, map(j.__mul__, range(order)))))
            if det_mod([[residue(x, p, powers) for x in row] for row in rows], p):
                return False
        if bound is None:
            scaled = []
            for row in rows:
                parts = [(x.nums, x.den) if hasattr(x, "nums") else ((x.numerator,), x.denominator)
                         for x in row]
                lcm = math.lcm(*(den for _, den in parts))
                scaled.append([[c * (lcm // den) for c in nums] for nums, den in parts])
            if order == 1:
                return not next(minors([[v[0] for v in row] for row in scaled]))
            bound = math.prod(sum(sum(map(abs, v)) ** 2 for v in row) for row in scaled)
        product *= p * p
        if product > bound:
            return True
