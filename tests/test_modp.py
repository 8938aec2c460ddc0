"""Tests for the residues modulo a split prime behind the verifier's
certificates."""

import math
import random
from fractions import Fraction

import pytest

from gfermat.exactfield import CyclotomicScalar, ExactMatrix
from gfermat.modp import EXACT_BELOW, det_mod, is_prime, residue, split_prime
from tests.conftest import rand_fraction


def trial_division_primes(limit):
    return [n for n in range(limit) if n >= 2 and all(n % q for q in range(2, math.isqrt(n) + 1))]


class TestMillerRabin:
    def test_agrees_with_trial_division_below_10_5(self):
        primes = set(trial_division_primes(10**5))
        assert [n for n in range(10**5) if is_prime(n)] == sorted(primes)

    def test_rejects_strong_pseudoprime_to_bases_2_to_23(self):
        # 3825123056546413051 = 149491 * 747451 * 34233211 passes the
        # strong test to every prime base up to 23
        n = 3825123056546413051
        assert n == 149491 * 747451 * 34233211
        assert not is_prime(n)

    def test_mersenne_primes_and_their_products(self):
        assert is_prime(2**31 - 1) and is_prime(2**61 - 1)
        assert not is_prime((2**31 - 1) * (2**19 - 1))
        assert not is_prime(561)  # a Carmichael number

    def test_refuses_past_the_exact_range(self):
        with pytest.raises(ValueError):
            is_prime(EXACT_BELOW)


class TestSplitPrime:
    @pytest.mark.parametrize("order", range(1, 61))
    def test_prime_is_one_mod_order_and_root_has_exact_order(self, order):
        p, g = split_prime(order)
        assert p > 2**40 and (p - 1) % order == 0 and is_prime(p)
        assert all(pow(g, e, p) != 1 for e in range(1, order)) and pow(g, order, p) == 1
        # it is the least such prime above 2^40
        first = 2**40 + 1 + (-2**40) % order
        assert all(not is_prime(q) for q in range(first, p, order))

    def test_skips_a_prime_dividing_a_denominator(self):
        p, _ = split_prime(7)
        for value in (Fraction(3, p), CyclotomicScalar(7, (1, 2, 0, 0, 0, 0), 5 * p)):
            q, g = split_prime(7, [Fraction(1, 2), value])
            assert q > p and (q - 1) % 7 == 0 and is_prime(q) and pow(g, 7, q) == 1 != g
        assert split_prime(7, [Fraction(p, 3), p]) == split_prime(7)


def random_scalar(rng, order):
    degree = len(CyclotomicScalar.zeta(order).nums)
    return CyclotomicScalar.from_poly(order, [rand_fraction(rng, 5) for _ in range(degree)])


class TestResidue:
    def test_rationals(self):
        p, g = split_prime(1)
        assert residue(Fraction(-3, 7), p, g, 1) == -3 * pow(7, -1, p) % p
        assert residue(5, p, g, 1) == 5
        q, h = split_prime(4)
        assert residue(CyclotomicScalar.from_rational(4, Fraction(2, 3)), q, h, 4) == \
            2 * pow(3, -1, q) % q

    def test_zeta_goes_to_the_root(self):
        for order in (2, 3, 5, 12):
            p, g = split_prime(order)
            assert residue(CyclotomicScalar.zeta(order), p, g, order) == g
            assert residue(CyclotomicScalar.zeta(order, order - 1), p, g, order) == pow(g, -1, p)

    @pytest.mark.parametrize("seed", range(6))
    def test_respects_sum_and_product_in_mixed_orders(self, seed):
        """Values of Q(zeta_m1) and Q(zeta_m2) go to F_p through one root of
        order lcm(m1, m2); promoting first changes nothing, and the image of
        a sum or product is the sum or product of the images."""
        rng = random.Random(seed)
        for _ in range(20):
            m1, m2 = rng.randint(1, 15), rng.randint(1, 15)
            order = math.lcm(m1, m2)
            p, g = split_prime(order)
            x, y = random_scalar(rng, m1), random_scalar(rng, m2)
            rx, ry = residue(x, p, g, order), residue(y, p, g, order)
            lx, ly = x.promote(order), y.promote(order)
            assert residue(lx, p, g, order) == rx and residue(ly, p, g, order) == ry
            assert residue(lx + ly, p, g, order) == (rx + ry) % p
            assert residue(lx * ly, p, g, order) == rx * ry % p
            c = rand_fraction(rng, 9)
            assert residue(x * c, p, g, order) == rx * residue(c, p, g, order) % p


class TestDetMod:
    def test_matches_exact_determinant(self):
        rng = random.Random(5)
        p, _ = split_prime(1)
        for size in range(1, 6):
            for _ in range(20):
                rows = [[rng.randint(-4, 4) for _ in range(size)] for _ in range(size)]
                if rng.random() < 0.3 and size > 1:
                    rows[-1] = list(rows[0])
                assert det_mod([[x % p for x in row] for row in rows], p) == \
                    ExactMatrix.from_rows(rows).det() % p

    def test_zero_mod_p_for_a_multiple_of_p(self):
        p, _ = split_prime(1)
        assert det_mod([[p % p, 1], [0, 1]], p) == 0
        assert ExactMatrix.from_rows([[p, 1], [0, 1]]).det() == p
