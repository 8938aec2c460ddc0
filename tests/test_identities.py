"""Identities of the branched cover, checked against the invariants and the
fixed loci.  M of type (d; k, n) is a Galois cover of P^d with deck group
H = Z_k^n, branched over n+1 hyperplanes in general position, and a
complete intersection of n-d degree-k forms in P^n.  No code in the library
or in ``tests/oracles.py`` uses these identities:

- e(M) by strata.  Over a point on exactly j branch hyperplanes the fiber
  has k^(n-j) points, so e(M) = sum_{j<=d} C(n+1, j) k^(n-j) e(P^(d-j)
  minus n+1-j general hyperplanes).  It equals the Chern-class value
  k^(n-d) [H^d] (1+H)^(n+1) / (1+kH)^(n-d) of the complete intersection.
- d = 1: Riemann-Hurwitz gives the genus g = 1 + k^(n-1) ((n-1)k - n - 1)/2,
  which is pg.
- d = 2: Noether's formula 12 (1 + pg) = K^2 + e(M), with q = 0 for a
  complete intersection surface and K = r1 H, so K^2 = r1^2 k^(n-2).
- Every d: the orbifold Euler identity sum_{g in H} e(Fix g) = |H| e(P^d) =
  (d+1) k^n.  A fixed component of type (d'; k, n') contributes e of that
  type, or its k^(n') points when d' = 0.
- Every d: Hirzebruch-Riemann-Roch, chi(O(r)) = k^(n-d) [H^d] e^(rH)
  (H/(1-e^(-H)))^(n+1) ((1-e^(-kH))/(kH))^(n-d), the Todd class of P^n over
  that of the normal bundle.  The twists have no intermediate cohomology
  and h^d(O(r)) = h0(r1 - r) by Serre duality, so chi(O(r)) = h0(r) for
  r > r1 and chi(O) = 1 + (-1)^d pg.

Each is checked through the API and through the JSON of the ``invariants``
and ``fixed-locus`` verbs, over d 1..4, k 2..5 and n from d+1 to d+5; the
orbifold sums over the types with k^n <= 5000, and Riemann-Roch, through
the API alone, over n up to d+4.
"""

import contextlib
import io
import itertools
import json
import math
from fractions import Fraction

import pytest

from gfermat.cli import main
from gfermat.fermatgroup import GroupElement, fixed_locus
from gfermat.invariants import GfmType, canonical_degree, h0_twist, hilbert_series_coefficient

TYPES = [(d, k, n) for d in range(1, 5) for k in range(2, 6) for n in range(d + 1, d + 6)]
ORBIFOLD_TYPES = [(d, k, n) for d, k, n in TYPES if k**n <= 5000]
# the types whose every element also goes through the fixed-locus verb
ORBIFOLD_JSON_TYPES = [(d, k, n) for d, k, n in TYPES if k**n <= 100]
RIEMANN_ROCH_TYPES = [(d, k, n) for d, k, n in TYPES if n <= d + 4]


def euler_of_complement(m: int, hyperplanes: int) -> int:
    """e(P^m minus that many general hyperplanes), by inclusion-exclusion:
    j of them meet in a P^(m-j), and more than m of them do not meet."""
    return sum((-1) ** j * math.comb(hyperplanes, j) * (m + 1 - j) for j in range(m + 1))


def euler_by_strata(d: int, k: int, n: int) -> int:
    """e(M) from the fibers over the strata of the branch arrangement; for
    d = 0 it is the k^n points of the fiber."""
    return sum(math.comb(n + 1, j) * k ** (n - j) * euler_of_complement(d - j, n + 1 - j)
               for j in range(d + 1))


def euler_by_chern(d: int, k: int, n: int) -> int:
    """k^(n-d) [H^d] (1+H)^(n+1) (1+kH)^(-(n-d)), the coefficient of H^t in
    the second factor being (-k)^t C(n-d+t-1, t)."""
    top = sum(math.comb(n + 1, i) * (-k) ** (d - i) * math.comb(n - i - 1, d - i)
              for i in range(d + 1))
    return k ** (n - d) * top


def series_product(a, b):
    """The product of two power series in H, to the length of a."""
    return [sum(a[i] * b[t - i] for i in range(t + 1)) for t in range(len(a))]


def chi_by_riemann_roch(d: int, k: int, n: int, r: int) -> Fraction:
    """chi(O(r)) = k^(n-d) [H^d] e^(rH) (H/(1-e^(-H)))^(n+1)
    ((1-e^(-kH))/(kH))^(n-d), with (1-e^(-x))/x = sum_t (-x)^t/(t+1)! and
    H/(1-e^(-H)) its inverse."""
    shifted = [Fraction((-1) ** t, math.factorial(t + 1)) for t in range(d + 1)]
    todd = [Fraction(1)]
    for t in range(1, d + 1):
        todd.append(-sum(shifted[i] * todd[t - i] for i in range(1, t + 1)))
    series = [Fraction(r**t, math.factorial(t)) for t in range(d + 1)]
    for _ in range(n + 1):
        series = series_product(series, todd)
    for _ in range(n - d):
        series = series_product(series, [c * k**t for t, c in enumerate(shifted)])
    return k ** (n - d) * series[d]


def cli_json(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main([str(a) for a in argv]) == 0
    return json.loads(out.getvalue())


def elements(k: int, n: int):
    """Every element of H, as canonical exponent vectors."""
    for exponents in itertools.product(range(k), repeat=n):
        yield exponents + (0,)


def component_euler(dimension: int, k: int, subtype_n: int, points) -> int:
    if dimension == 0:
        assert points == k**subtype_n
        return points
    return euler_by_strata(dimension, k, subtype_n)


@pytest.mark.parametrize("d,k,n", TYPES)
def test_euler_by_strata_is_the_chern_class_value(d, k, n):
    assert euler_by_strata(d, k, n) == euler_by_chern(d, k, n)


@pytest.mark.parametrize("d,k,n", [t for t in TYPES if t[0] == 1])
def test_riemann_hurwitz_genus_is_pg(d, k, n):
    genus = 1 + k ** (n - 1) * ((n - 1) * k - n - 1) // 2
    assert 2 - 2 * genus == euler_by_strata(d, k, n)
    gfm_type = GfmType(d, k, n)
    assert h0_twist(gfm_type, canonical_degree(gfm_type)) == genus
    assert cli_json("invariants", d, k, n)["pg"] == genus


@pytest.mark.parametrize("d,k,n", [t for t in TYPES if t[0] == 2])
def test_noether_formula(d, k, n):
    gfm_type = GfmType(d, k, n)
    r1 = canonical_degree(gfm_type)
    pg = h0_twist(gfm_type, r1)
    assert 12 * (1 + pg) == r1**2 * k ** (n - 2) + euler_by_strata(d, k, n)
    report = cli_json("invariants", d, k, n)
    assert (report["r1"], report["pg"]) == (r1, pg)


@pytest.mark.parametrize("d,k,n", RIEMANN_ROCH_TYPES)
def test_riemann_roch_is_the_hilbert_series(d, k, n):
    """Six twists past r1 and the structure sheaf: 7 checks per type."""
    gfm_type = GfmType(d, k, n)
    r1 = canonical_degree(gfm_type)
    start = max(0, r1 + 1)
    for r in range(start, start + 6):
        assert chi_by_riemann_roch(d, k, n, r) == hilbert_series_coefficient(gfm_type, r), r
    assert chi_by_riemann_roch(d, k, n, 0) == 1 + (-1) ** d * h0_twist(gfm_type, r1)


@pytest.mark.parametrize("d,k,n", ORBIFOLD_TYPES)
def test_orbifold_euler_sum(d, k, n):
    gfm_type = GfmType(d, k, n)
    total = sum(component_euler(c.subtype_d, k, c.subtype_n, c.point_count)
                for exponents in elements(k, n)
                for c in fixed_locus(GroupElement(k, exponents), gfm_type).components)
    assert total == (d + 1) * k**n


@pytest.mark.parametrize("d,k,n", ORBIFOLD_JSON_TYPES)
def test_orbifold_euler_sum_from_the_json(d, k, n):
    total = 0
    for exponents in elements(k, n):
        report = cli_json("fixed-locus", d, k, n, json.dumps(list(exponents)))
        total += sum(component_euler(c["type"]["d"], k, c["type"]["n"], c["point_count"])
                     for c in report["components"])
    assert total == (d + 1) * k**n
