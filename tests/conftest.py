"""Shared helpers for the test suite: seeded random exact objects."""

import random
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from gfermat.exactfield import ExactMatrix

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
        if matrix.det() != 0:
            return matrix


@pytest.fixture
def rng():
    return random.Random(20240811)
