"""Tests for twisted section dimensions, plurigenera and classification."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfermat.invariants import (
    GfmType,
    canonical_degree,
    classify,
    h0_twist,
    hilbert_series_coefficient,
    invariant_report,
    kodaira_dimension,
    plurigenus,
)
from tests import oracles


def h0_literal(t, r):
    """Literal lattice-box enumeration of the section-count formula."""
    if r < 0:
        return 0
    if r < t.k:
        return math.comb(r + t.n, t.n)
    total = 0
    for j in itertools.product(range(t.k), repeat=t.n - t.d):
        jbar = sum(j)
        if jbar <= r:
            total += math.comb(r - jbar + t.d, t.d)
    return total


class TestH0Twist:
    def test_reference_values(self):
        assert h0_twist(GfmType(2, 4, 3), -1) == 0
        assert h0_twist(GfmType(2, 4, 3), 0) == 1
        assert h0_twist(GfmType(2, 3, 4), 3) == 33

    def test_grouped_sum_equals_literal_enumeration(self):
        for d in (1, 2):
            for k in (2, 3, 4):
                for n in range(d + 1, d + 5):
                    t = GfmType(d, k, n)
                    for r in range(-2, 3 * k + 1):
                        assert h0_twist(t, r) == h0_literal(t, r), (d, k, n, r)

    def test_oracle_equality_small_grid(self):
        for d in (1, 2, 3):
            for k in (2, 3):
                for n in range(d + 1, 8):
                    t = GfmType(d, k, n)
                    for r in range(0, 3 * k + 1):
                        assert h0_twist(t, r) == oracles.h0_box_sum(t, r)
                        assert h0_twist(t, r) == hilbert_series_coefficient(t, r)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 3), st.integers(2, 12), st.integers(1, 6), st.data())
    def test_closed_form_matches_box_sum(self, d, k, extra, data):
        t = GfmType(d, k, d + extra)
        r = data.draw(st.integers(-3, 4 * k))
        assert h0_twist(t, r) == oracles.h0_box_sum(t, r)

    def test_eventual_polynomiality(self):
        """Differences of order d+1 vanish once r clears (n-d)(k-1)."""
        for t in [GfmType(2, 3, 5), GfmType(1, 4, 4), GfmType(3, 2, 6)]:
            start = (t.n - t.d) * (t.k - 1)
            values = [h0_twist(t, r) for r in range(start, start + t.d + 6)]
            for _ in range(t.d + 1):
                values = [b - a for a, b in zip(values, values[1:])]
            assert all(v == 0 for v in values)


class TestHilbertSeries:
    def test_degree_zero(self):
        assert hilbert_series_coefficient(GfmType(2, 5, 6), 0) == 1

    def test_alternating_formula_value(self):
        assert hilbert_series_coefficient(GfmType(2, 3, 4), 3) == 33

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            hilbert_series_coefficient(GfmType(2, 3, 4), -1)


class TestCanonicalDegree:
    @pytest.mark.parametrize(
        "t,expected",
        [
            (GfmType(2, 4, 3), 0),
            (GfmType(2, 2, 5), 0),
            (GfmType(1, 2, 3), 0),
            (GfmType(2, 3, 4), 1),
            (GfmType(2, 2, 3), -2),
        ],
    )
    def test_values(self, t, expected):
        assert canonical_degree(t) == expected


class TestPlurigenus:
    def test_trivial_canonical_class(self):
        for t in [GfmType(2, 4, 3), GfmType(2, 2, 5), GfmType(3, 2, 7)]:
            assert canonical_degree(t) == 0
            for m in (1, 2, 5, 10):
                assert plurigenus(t, m) == 1

    def test_negative_canonical_class(self):
        for t in [GfmType(2, 2, 3), GfmType(2, 3, 3), GfmType(2, 2, 4)]:
            for m in (1, 2, 5):
                assert plurigenus(t, m) == 0

    def test_general_type_value(self):
        assert plurigenus(GfmType(2, 3, 4), 1) == 5

    def test_rejects_nonpositive_index(self):
        with pytest.raises(ValueError):
            plurigenus(GfmType(2, 3, 4), 0)


class TestKodairaAndClassification:
    def test_kodaira_values(self):
        assert kodaira_dimension(GfmType(2, 2, 3)) == "-infinity"
        assert kodaira_dimension(GfmType(2, 4, 3)) == 0
        assert kodaira_dimension(GfmType(2, 3, 4)) == 2

    def test_labels(self):
        assert classify(GfmType(2, 4, 3)) == "K3"
        assert classify(GfmType(2, 2, 5)) == "K3"
        assert classify(GfmType(2, 3, 3)) == "rational"
        assert classify(GfmType(2, 2, 3)) == "rational"
        assert classify(GfmType(2, 2, 4)) == "rational"
        assert classify(GfmType(2, 3, 4)) == "general-type"
        assert classify(GfmType(3, 2, 7)) == "Calabi-Yau"
        assert classify(GfmType(3, 2, 5)) == "negative-kodaira"

    def test_labels_match_named_surface_tuples(self):
        """The labels read off r1 equal those of the named tuples they
        replaced, for d 1..6, k 2..60 and n d+1..d+40."""
        k3, rational = {(4, 3), (2, 5)}, {(2, 3), (3, 3), (2, 4)}

        def named(t):
            r1 = canonical_degree(t)
            if t.d == 2 and (t.k, t.n) in k3:
                return "K3"
            if t.d == 2 and (t.k, t.n) in rational:
                return "rational"
            return "Calabi-Yau" if r1 == 0 else "general-type" if r1 > 0 else "negative-kodaira"

        for d in range(1, 7):
            for k in range(2, 61):
                for n in range(d + 1, d + 41):
                    t = GfmType(d, k, n)
                    assert classify(t) == named(t), t

    def test_no_rational_label_outside_dimension_two(self):
        assert classify(GfmType(3, 2, 4)) == "negative-kodaira"
        assert classify(GfmType(1, 2, 2)) == "negative-kodaira"


class TestLeadingCoefficient:
    @pytest.mark.parametrize(
        "t,expected",
        [
            (GfmType(2, 3, 4), Fraction(9, 2)),
            (GfmType(1, 3, 3), Fraction(18)),
            (GfmType(2, 2, 6), Fraction(8)),
        ],
    )
    def test_closed_form(self, t, expected):
        assert oracles.leading_coefficient(t) == expected

    def test_rejects_nonpositive_r1(self):
        with pytest.raises(ValueError):
            oracles.leading_coefficient(GfmType(2, 4, 3))

    def test_matches_interpolation(self):
        for t in [GfmType(2, 3, 4), GfmType(1, 3, 3), GfmType(2, 2, 6), GfmType(3, 3, 6)]:
            r1 = canonical_degree(t)
            threshold = max(t.k, (t.n - t.d) * (t.k - 1))
            m0 = (threshold + r1 - 1) // r1
            values = [Fraction(plurigenus(t, m)) for m in range(m0, m0 + t.d + 1)]
            for _ in range(t.d):
                values = [b - a for a, b in zip(values, values[1:])]
            # after d unit-step differences, what remains is lead * d!
            assert values[0] / math.factorial(t.d) == oracles.leading_coefficient(t)


class TestCurveGenus:
    def test_matches_classical_formula(self):
        """d = 1: pa = pg = 1 + (k^{n-1}/2)(k(n-1) - n - 1)."""
        for k in range(2, 5):
            for n in range(2, 7):
                t = GfmType(1, k, n)
                expected = 1 + Fraction(k ** (n - 1), 2) * (k * (n - 1) - n - 1)
                assert h0_twist(t, canonical_degree(t)) == expected


class TestDuality:
    def test_hd_of_structure_sheaf_is_genus(self):
        for t in [GfmType(2, 3, 4), GfmType(1, 4, 3), GfmType(3, 2, 7)]:
            report = invariant_report(t)
            assert h0_twist(t, canonical_degree(t)) == report.pa_pg


class TestReport:
    def test_k3_report(self):
        report = invariant_report(GfmType(2, 4, 3), (1, 2, 3, 4))
        assert report.label == "K3"
        assert report.pa_pg == 1
        assert set(report.plurigenera.values()) == {1}
        assert report.r1 == 0

    def test_json_kodaira_encoding(self):
        assert invariant_report(GfmType(2, 2, 3)).to_json()["kodaira"] == "-infinity"
        assert invariant_report(GfmType(2, 3, 4)).to_json()["kodaira"] == 2
