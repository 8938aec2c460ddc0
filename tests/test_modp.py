"""Tests for the residues modulo a split prime behind the verifier's
certificates."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from gfermat.exactfield import CyclotomicScalar, ExactMatrix
from gfermat.modp import (
    EXACT_BELOW,
    det_mod,
    is_prime,
    is_singular,
    residue,
    root_powers,
    split_primes,
)
from tests import oracles
from tests.conftest import rand_fraction


# (p, g): the least split prime p and g = a^((p-1)/L) for the least base a
# that gives exact order L, recorded when g's order was tested against each
# prime factor of L
SPLIT_PRIMES = {
    1: (1099511627791, 1), 2: (1099511627791, 1099511627790), 3: (1099511627791, 900489399375),
    4: (1099511627873, 961209656835), 5: (1099511627791, 56559685605),
    6: (1099511627791, 199022228416), 7: (1099511627803, 231197147670),
    8: (1099511627873, 173652341105), 9: (1099511628211, 393458044354),
    10: (1099511627791, 830751034116), 11: (1099511627831, 225136507402),
    12: (1099511627917, 378859261578), 13: (1099511627891, 127945694702),
    14: (1099511627803, 262439494776), 15: (1099511627791, 60079515103),
    16: (1099511627873, 108163207722), 17: (1099511628779, 926083899698),
    18: (1099511628211, 462060093861), 19: (1099511628331, 674130462460),
    20: (1099511628161, 576980534126), 21: (1099511627803, 50536764190),
    22: (1099511627831, 124103988222), 23: (1099511628569, 588192417373),
    24: (1099511627953, 341206866940), 25: (1099511628401, 4614327482),
    26: (1099511627891, 1092529354930), 27: (1099511628571, 217763542777),
    28: (1099511627873, 1052195022015), 29: (1099511629597, 832922507118),
    30: (1099511627791, 271808134474), 31: (1099511628427, 1073487088629),
    32: (1099511627873, 776063673133), 33: (1099511628403, 564806848393),
    34: (1099511628779, 724963994221), 35: (1099511627831, 1036160591296),
    36: (1099511628769, 431715320615), 37: (1099511628427, 562190806624),
    38: (1099511628331, 714061297832), 39: (1099511627917, 666145039961),
    40: (1099511628161, 249238157354), 41: (1099511628227, 215762756097),
    42: (1099511627803, 503833182187), 43: (1099511630561, 594455866397),
    44: (1099511628029, 963425435709), 45: (1099511628211, 918214201784),
    46: (1099511628569, 484075609623), 47: (1099511628211, 787390324723),
    48: (1099511627953, 699059729324), 49: (1099511628769, 799928921901),
    50: (1099511628401, 113604899531), 51: (1099511630479, 362781302833),
    52: (1099511627917, 343808628143), 53: (1099511628791, 275776954354),
    54: (1099511628571, 837653764366), 55: (1099511627831, 1097909965318),
    56: (1099511627873, 378173029727), 57: (1099511628331, 764633155675),
    58: (1099511629597, 220078943093), 59: (1099511628763, 169180799318),
    60: (1099511628781, 982137446793), 331: (1099511645951, 896663658472),
    660: (1099511629921, 918757778868), 2310: (1099511630911, 562019046983),
}


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
        p, g = next(split_primes(order))
        assert p > 2**40 and (p - 1) % order == 0 and is_prime(p)
        assert all(pow(g, e, p) != 1 for e in range(1, order)) and pow(g, order, p) == 1
        # it is the least such prime above 2^40
        first = 2**40 + 1 + (-2**40) % order
        assert all(not is_prime(q) for q in range(first, p, order))

    def test_pinned_primes_and_roots(self):
        """The least p and the root g of the least base a are pinned, so a
        change in how g is found cannot change which g is returned."""
        assert {order: next(split_primes(order)) for order in SPLIT_PRIMES} == SPLIT_PRIMES

    def test_skips_a_prime_dividing_a_denominator(self):
        p, _ = next(split_primes(7))
        for value in (Fraction(3, p), CyclotomicScalar(7, (1, 2, 0, 0, 0, 0), 5 * p)):
            q, g = next(split_primes(7, [Fraction(1, 2), value]))
            assert q > p and (q - 1) % 7 == 0 and is_prime(q) and pow(g, 7, q) == 1 != g
        assert next(split_primes(7, [Fraction(p, 3), p])) == next(split_primes(7))

    def test_yields_every_split_prime_in_order(self):
        primes = [p for p, _ in itertools.islice(split_primes(7), 3)]
        first = 2**40 + 1 + (-2**40) % 7
        assert primes == [q for q in range(first, primes[-1] + 1, 7) if is_prime(q)]


def random_scalar(rng, order):
    degree = len(CyclotomicScalar.zeta(order).nums)
    return CyclotomicScalar.from_poly(order, [rand_fraction(rng, 5) for _ in range(degree)])


class TestResidue:
    def test_rationals(self):
        p, g = next(split_primes(1))
        assert residue(Fraction(-3, 7), p, root_powers(g, p, 1)) == -3 * pow(7, -1, p) % p
        assert residue(5, p, root_powers(g, p, 1)) == 5
        q, h = next(split_primes(4))
        assert residue(CyclotomicScalar.from_rational(4, Fraction(2, 3)), q,
                       root_powers(h, q, 4)) == 2 * pow(3, -1, q) % q

    def test_zeta_goes_to_the_root(self):
        for order in (2, 3, 5, 12):
            p, g = next(split_primes(order))
            powers = root_powers(g, p, order)
            assert residue(CyclotomicScalar.zeta(order), p, powers) == g
            assert residue(CyclotomicScalar.zeta(order, order - 1), p, powers) == pow(g, -1, p)

    def test_powers_table(self):
        for order in (1, 2, 7, 12):
            p, g = next(split_primes(order))
            assert root_powers(g, p, order) == [pow(g, i, p) for i in range(order)]

    @pytest.mark.parametrize("seed", range(6))
    def test_respects_sum_and_product_in_mixed_orders(self, seed):
        """Values of Q(zeta_m1) and Q(zeta_m2) go to F_p through one root of
        order lcm(m1, m2); promoting first changes nothing, and the image of
        a sum or product is the sum or product of the images."""
        rng = random.Random(seed)
        for _ in range(20):
            m1, m2 = rng.randint(1, 15), rng.randint(1, 15)
            order = math.lcm(m1, m2)
            p, g = next(split_primes(order))
            powers = root_powers(g, p, order)
            x, y = random_scalar(rng, m1), random_scalar(rng, m2)
            rx, ry = residue(x, p, powers), residue(y, p, powers)
            lx, ly = x.promote(order), y.promote(order)
            assert residue(lx, p, powers) == rx and residue(ly, p, powers) == ry
            assert residue(lx + ly, p, powers) == (rx + ry) % p
            assert residue(lx * ly, p, powers) == rx * ry % p
            c = rand_fraction(rng, 9)
            assert residue(x * c, p, powers) == rx * residue(c, p, powers) % p

    @pytest.mark.parametrize("order", (5, 12, 15))
    def test_matches_horner_at_every_root(self, order):
        """At every root g^j of Phi_L, the table read of ``residue`` is the
        Horner evaluation of the value's coefficients at g^(jL/m)."""
        rng = random.Random(order)
        p, g = next(split_primes(order))
        for m in (m for m in range(1, order + 1) if order % m == 0):
            x = random_scalar(rng, m)
            for j in (j for j in range(order) if math.gcd(j, order) == 1):
                h = pow(g, j * (order // m), p)
                value = 0
                for c in reversed(x.nums):
                    value = (value * h + c) % p
                powers = root_powers(pow(g, j, p), p, order)
                assert residue(x, p, powers) == value * pow(x.den, -1, p) % p


class TestDetMod:
    def test_matches_exact_determinant(self):
        rng = random.Random(5)
        p, _ = next(split_primes(1))
        for size in range(1, 6):
            for _ in range(20):
                rows = [[rng.randint(-4, 4) for _ in range(size)] for _ in range(size)]
                if rng.random() < 0.3 and size > 1:
                    rows[-1] = list(rows[0])
                assert det_mod([[x % p for x in row] for row in rows], p) == \
                    oracles.det(ExactMatrix.from_rows(rows)) % p

    def test_zero_mod_p_for_a_multiple_of_p(self):
        p, _ = next(split_primes(1))
        assert det_mod([[p % p, 1], [0, 1]], p) == 0
        assert oracles.det(ExactMatrix.from_rows([[p, 1], [0, 1]])) == p


def lift(x, order):
    """x in Q(zeta_order), for x rational or of an order dividing it."""
    if isinstance(x, CyclotomicScalar):
        return x.promote(order)
    return CyclotomicScalar.from_rational(order, x)


class TestIsSingular:
    @pytest.mark.parametrize("seed", range(4))
    def test_agrees_with_the_exact_determinant(self, seed):
        """Sizes 1..5 over one or two orders up to 12 with rational cells
        mixed in, and in about a third of them one row a rational or
        root-of-unity multiple of another: singular exactly when the
        Bareiss determinant in Q(zeta_L) is 0."""
        rng = random.Random(seed)
        verdicts = []
        for _ in range(150):
            size = rng.randint(1, 5)
            orders = [rng.randint(1, 12) for _ in range(rng.randint(1, 2))]

            def cell():
                if rng.random() < 0.3:
                    return rand_fraction(rng, 4)
                m = rng.choice(orders)
                degree = len(CyclotomicScalar.one(m).nums)
                return CyclotomicScalar.from_poly(
                    m, [rand_fraction(rng, 3) for _ in range(rng.randint(1, degree))])

            rows = [[cell() for _ in range(size)] for _ in range(size)]
            order = math.lcm(*orders)
            if size > 1 and rng.random() < 0.4:
                i, j = rng.sample(range(size), 2)
                factor = rng.choice((Fraction(-1, 3), CyclotomicScalar.zeta(order, 1)))
                rows[i] = [lift(x, order) * factor for x in rows[j]]
            order = math.lcm(*(x.order for row in rows for x in row
                               if isinstance(x, CyclotomicScalar)))
            exact = oracles.det(ExactMatrix.from_rows([[lift(x, order) for x in row]
                                                       for row in rows]))
            verdicts.append(is_singular(rows, order))
            assert verdicts[-1] == (exact == 0)
        assert True in verdicts and False in verdicts

    @pytest.mark.parametrize("order", (2, 5, 12))
    def test_singular_stops_at_the_first_prime_product_past_the_bound(self, order, monkeypatch):
        """A repeated row takes phi(L) determinants at each split prime,
        until the product of the primes squared passes B^2 = prod_i sum_j
        ||a_ij||_1^2 of the rows scaled by their denominators' lcm."""
        rng = random.Random(order)
        first = [CyclotomicScalar.from_poly(order, [rand_fraction(rng, 10**6) for _ in range(3)])
                 for _ in range(3)]
        rows = [first, [Fraction(1, 2), Fraction(0), CyclotomicScalar.zeta(order)], first]
        bound = 1
        for row in rows:
            lifted = [lift(x, order) for x in row]
            lcm = math.lcm(*(x.den for x in lifted))
            bound *= sum((sum(map(abs, x.nums)) * (lcm // x.den)) ** 2 for x in lifted)
        expected, product = [], 1
        for p, _ in split_primes(order, [x for row in rows for x in row]):
            expected += [p] * sum(math.gcd(j, order) == 1 for j in range(order))
            product *= p * p
            if product > bound:
                break
        calls = []

        def counting(matrix, p):
            calls.append(p)
            return det_mod(matrix, p)

        monkeypatch.setattr("gfermat.modp.det_mod", counting)
        assert is_singular(rows, order)
        assert calls == expected and len(set(calls)) > 1
