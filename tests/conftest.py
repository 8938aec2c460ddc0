"""Shared helpers for the test suite: seeded random exact objects."""

import random
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from gfermat.exactfield import ExactMatrix
from tests import oracles

BIG = 10**30


def _nonzero_fractions(bound):
    return st.builds(
        lambda sign, num, den: Fraction(sign * num, den),
        st.sampled_from((1, -1)), st.integers(1, bound), st.integers(1, bound),
    )


# Nonzero rationals of small and of large height; ``rationals`` adds zero,
# drawn often enough that frames needing a pivot swap, and degenerate ones,
# come up regularly.
nonzero_rationals = st.one_of(_nonzero_fractions(9), _nonzero_fractions(BIG))
rationals = st.one_of(st.just(Fraction(0)), nonzero_rationals)


@st.composite
def tables(draw, entries=rationals, extra=7):
    """(d, n, rows): a parameter table with d in 1..3, n in d+1..d+extra and
    entries drawn from ``entries``.  Half the tables with rows are then put
    off general position: a repeated row, an entry 0 or 1, or two equal
    entries in one row (an entry 0 where a row or entry cannot repeat)."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(d + 1, d + extra))
    rows = [list(draw(st.tuples(*[entries] * d))) for _ in range(n - d - 1)]
    if rows and draw(st.booleans()):
        i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, d - 1))
        kind = draw(st.sampled_from(("repeat", "zero", "one", "equal")))
        if kind == "repeat" and len(rows) > 1:
            rows[i] = list(rows[i - 1])
        elif kind == "equal" and d > 1:
            rows[i][j] = rows[i][j - 1]
        else:
            rows[i][j] = Fraction(kind == "one")
    return d, n, tuple(tuple(row) for row in rows)


def rand_fraction(rng, bound=9, nonzero=False):
    while True:
        value = Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
        if not nonzero or value != 0:
            return value


def rand_invertible(rng, size, bound=5):
    while True:
        matrix = ExactMatrix.from_rows(
            [[rand_fraction(rng, bound) for _ in range(size)] for _ in range(size)]
        )
        if oracles.det(matrix) != 0:
            return matrix


@pytest.fixture
def rng():
    return random.Random(20240811)
