"""Seeded input generation with its own exact arithmetic.

Nothing here imports gfermat: general position is filtered with a local
fraction-free determinant and the reorder-and-renormalize action is
recomputed from scratch.  The parent commit and a change therefore get
byte-identical inputs from the same seed, and the local action doubles as
an independent oracle for the library's ``act``.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction


def pass_rng(seed: int, pass_index: int, workload: str) -> random.Random:
    """The generator for one pass of one workload (string seeding is
    stable across interpreter runs)."""
    return random.Random(f"gfermat-bench:{workload}:{seed}:{pass_index}")


def rand_fraction(rng: random.Random, bound: int = 9, nonzero: bool = False) -> Fraction:
    while True:
        value = Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
        if value or not nonzero:
            return value


def det(rows) -> Fraction:
    """Determinant by Gaussian elimination over Fraction."""
    a = [list(map(Fraction, r)) for r in rows]
    n = len(a)
    result = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            result = -result
        p = a[col][col]
        result *= p
        for r in range(col + 1, n):
            f = a[r][col] / p
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return result


def in_general_position(points, d: int) -> bool:
    """Every d+1 of the points (vectors of length d+1) are independent."""
    for subset in itertools.combinations(points, d + 1):
        if det(list(zip(*subset))) == 0:
            return False
    return True


def solve(columns, rhs):
    """Solve B x = rhs where B has the given columns (B invertible)."""
    size = len(rhs)
    a = [[Fraction(columns[j][i]) for j in range(size)] + [Fraction(rhs[i])]
         for i in range(size)]
    for col in range(size):
        pivot = next(r for r in range(col, size) if a[r][col])
        a[col], a[pivot] = a[pivot], a[col]
        p = a[col][col]
        a[col] = [x / p for x in a[col]]
        for r in range(size):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [a[i][size] for i in range(size)]


def duals_of(d: int, rows):
    """Dual points of the canonical arrangement of a parameter table."""
    duals = [tuple(Fraction(int(i == j)) for i in range(d + 1)) for j in range(d + 1)]
    duals.append(tuple(Fraction(1) for _ in range(d + 1)))
    duals.extend(tuple(row) + (Fraction(1),) for row in rows)
    return duals


def table_from_duals(d: int, duals):
    """Normal-form table of dual points: base d+1 points to the frame,
    point d+2 to (1, ..., 1), the rest read off as rows."""
    base = duals[: d + 1]
    anchor = solve(base, duals[d + 1])
    rows = []
    for q in duals[d + 2:]:
        coords = solve(base, q)
        image = [c / a for c, a in zip(coords, anchor)]
        rows.append(tuple(image[j] / image[d] for j in range(d)))
    return tuple(rows)


def act_rows(images, d: int, rows):
    """Independent reorder-and-renormalize: hyperplane i moves to slot
    images[i] (0-based one-line notation)."""
    duals = duals_of(d, rows)
    slots = [None] * len(duals)
    for i, j in enumerate(images):
        slots[j] = duals[i]
    return table_from_duals(d, slots)


def random_table(rng: random.Random, d: int, n: int, bound: int = 9):
    """A uniformly drawn small-rational table in X_{n,d} (rejection by the
    local general-position test)."""
    while True:
        rows = tuple(
            tuple(rand_fraction(rng, bound) for _ in range(d))
            for _ in range(n - d - 1)
        )
        if in_general_position(duals_of(d, rows), d):
            return rows


def random_permutation(rng: random.Random, m: int) -> tuple[int, ...]:
    return tuple(rng.sample(range(m), m))


def compose(first, second):
    """One-line product read left to right: apply ``first``, then ``second``."""
    return tuple(second[i] for i in first)


def random_invertible(rng: random.Random, size: int, bound: int = 4):
    while True:
        rows = [[rng.randint(-bound, bound) for _ in range(size)] for _ in range(size)]
        if det(rows):
            return rows


def scramble(rng: random.Random, d: int, duals):
    """Apply a random invertible linear map and random nonzero scalings;
    general position and the normal form are unchanged."""
    m = random_invertible(rng, d + 1)
    out = []
    for q in duals:
        image = [sum(m[i][j] * q[j] for j in range(d + 1)) for i in range(d + 1)]
        scale = rand_fraction(rng, 5, nonzero=True)
        out.append(tuple(scale * x for x in image))
    return out


def fraction_text(value: Fraction) -> str:
    return str(Fraction(value))


def table_json(d: int, n: int, rows) -> dict:
    return {"d": d, "n": n, "lambda": [[fraction_text(x) for x in row] for row in rows]}


def adjugate3(m):
    """Adjugate of a 3x3 matrix."""
    def cof(i, j):
        r = [x for x in range(3) if x != i]
        c = [x for x in range(3) if x != j]
        minor = m[r[0]][c[0]] * m[r[1]][c[1]] - m[r[0]][c[1]] * m[r[1]][c[0]]
        return minor if (i + j) % 2 == 0 else -minor
    return [[cof(j, i) for j in range(3)] for i in range(3)]


def conic_matrix(a: Fraction):
    """Matrix of the conic of parameter a tangent to the four canonical
    lines: coefficients (4, a^2, (2-a)^2, 4a, 4(2-a), -2a(2-a))."""
    b = 2 - a
    c = (Fraction(4), a * a, b * b, 4 * a, 4 * b, -2 * a * b)
    h = Fraction(1, 2)
    return [
        [c[0], c[3] * h, c[4] * h],
        [c[3] * h, c[1], c[5] * h],
        [c[4] * h, c[5] * h, c[2]],
    ]


def tangent_line(a: Fraction, t: Fraction):
    """A rational tangent line of the conic of parameter a: the second
    intersection of the dual conic with the pencil e_1 + s (0, 1, t)."""
    adj = adjugate3(conic_matrix(a))
    v = (Fraction(0), Fraction(1), t)
    av = [sum(adj[i][j] * v[j] for j in range(3)) for i in range(3)]
    quad = sum(x * y for x, y in zip(v, av))
    lin = av[0]
    if quad == 0 or lin == 0:
        return None
    s = -2 * lin / quad
    return (Fraction(1), s, s * t)
