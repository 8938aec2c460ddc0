"""Cohomological invariants of the branched-cover varieties.

Everything reduces to the dimension of the space of global sections of the
r-th twist on a smooth complete intersection of n-d degree-k forms in P^n.
Its Hilbert series is (1 - t^k)^{n-d} (1 - t)^{-(n+1)}, so

    h0(r) = 0                                               for r < 0,
    h0(r) = sum_{s=0}^{min(n-d, r//k)} (-1)^s C(n-d, s) C(r - s k + n, n)
                                                            for r >= 0,

which takes O(n-d) binomials.  The canonical twist is r1 = (n-d)k - n - 1;
its sign determines the Kodaira dimension, and plurigenera are P_m = h0(m r1).
The type triple ``GfmType`` is defined here: the invariants read nothing
else, so they load no parameter space and no rational arithmetic.
"""

from __future__ import annotations

import math

from .errors import Frozen

__all__ = [
    "GfmType",
    "h0_twist",
    "hilbert_series_coefficient",
    "canonical_degree",
    "plurigenus",
    "kodaira_dimension",
    "classify",
    "InvariantReport",
    "invariant_report",
]


class GfmType(Frozen):
    """A type triple (d; k, n): dimension, branch order, n+1 hyperplanes."""

    __slots__ = ("d", "k", "n")

    def __init__(self, d: int, k: int, n: int):
        if d < 1:
            raise ValueError("dimension d must be >= 1")
        if k < 2:
            raise ValueError("branch order k must be >= 2")
        if n < d + 1:
            raise ValueError("need n >= d+1 (see classify_low_n for 2 <= n <= d)")
        super().__init__(d, k, n)


def h0_twist(gfm_type: GfmType, r: int) -> int:
    """Dimension of the space of degree-r twisted global sections."""
    return 0 if r < 0 else hilbert_series_coefficient(gfm_type, r)


def hilbert_series_coefficient(gfm_type: GfmType, r: int) -> int:
    """Coefficient of t^r in (1 - t^k)^{n-d} (1 - t)^{-(n+1)}, by the
    alternating binomial convolution sum_s (-1)^s C(n-d, s) C(r - s k + n, n).
    """
    if r < 0:
        raise ValueError("the Hilbert series has no negative coefficients")
    d, k, n = gfm_type.d, gfm_type.k, gfm_type.n
    total = 0
    for s in range(min(n - d, r // k) + 1):
        term = math.comb(n - d, s) * math.comb(r - s * k + n, n)
        total += -term if s % 2 else term
    return total


def canonical_degree(gfm_type: GfmType) -> int:
    """The twist carrying the canonical sheaf: r1 = (n-d)k - n - 1."""
    return (gfm_type.n - gfm_type.d) * gfm_type.k - gfm_type.n - 1


def plurigenus(gfm_type: GfmType, m: int) -> int:
    """P_m = h0(m r1)."""
    if m < 1:
        raise ValueError("plurigenus index m must be positive")
    return h0_twist(gfm_type, m * canonical_degree(gfm_type))


def kodaira_dimension(gfm_type: GfmType):
    """The Kodaira dimension: "-infinity", 0 or d according to the sign of r1."""
    r1 = canonical_degree(gfm_type)
    if r1 < 0:
        return "-infinity"
    if r1 == 0:
        return 0
    return gfm_type.d


def classify(gfm_type: GfmType) -> str:
    """Coarse classification label, read off r1.

    For surfaces (d = 2, so n >= 3) r1 = (n-2)k - n - 1 is 0 exactly for
    (k, n) = (4, 3) and (2, 5), the K3 surfaces, since k = 1 + 3/(n-2); it
    is negative exactly for (2, 3), (3, 3) and (2, 4), the rational ones,
    since k >= 2 needs n <= 4.  In other dimensions a negative r1 is
    labelled plainly, without extrapolating rationality.
    """
    r1 = canonical_degree(gfm_type)
    if gfm_type.d == 2 and r1 <= 0:
        return "K3" if r1 == 0 else "rational"
    if r1 == 0:
        return "Calabi-Yau"
    if r1 > 0:
        return "general-type"
    return "negative-kodaira"


class InvariantReport(Frozen):
    __slots__ = ("gfm_type", "r1", "kodaira", "pa_pg", "plurigenera", "label",
                 "intermediate_vanishing_note")

    def to_json(self):
        return {
            "type": {"d": self.gfm_type.d, "k": self.gfm_type.k, "n": self.gfm_type.n},
            "r1": self.r1,
            "kodaira": self.kodaira,
            "pa": self.pa_pg,
            "pg": self.pa_pg,
            "plurigenera": {str(m): p for m, p in sorted(self.plurigenera.items())},
            "label": self.label,
            "intermediate_vanishing": self.intermediate_vanishing_note,
        }


def invariant_report(gfm_type: GfmType, pluri_indices=(1, 2, 3)) -> InvariantReport:
    """Collect r1, genera, requested plurigenera and the classification."""
    r1 = canonical_degree(gfm_type)
    return InvariantReport(
        gfm_type,
        r1,
        kodaira_dimension(gfm_type),
        h0_twist(gfm_type, r1),
        {m: plurigenus(gfm_type, m) for m in pluri_indices},
        classify(gfm_type),
        f"h^i of every twist vanishes for 0 < i < {gfm_type.d}"
        if gfm_type.d > 1
        else "no intermediate cohomology in dimension 1",
    )
