"""Tests for the command-line front end: determinism, exit codes, schemas."""

import contextlib
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gfermat import cli
from gfermat.cli import (
    EXIT_BUDGET,
    EXIT_OK,
    EXIT_PRECONDITION,
    EXIT_VALIDATION,
    main,
)
from gfermat.arrangement import Arrangement, StandardParameter
from gfermat.constructions import kummer_parameters, tangent_conic
from gfermat.errors import ValidationError
from gfermat.exactfield import CyclotomicScalar
from gfermat.fermatgroup import EquationSystem, smoothness_certificate
from gfermat.invariants import GfmType, canonical_degree, hilbert_series_coefficient
from gfermat.rational import rational_from_string
from tests.conftest import tables

PAR_13 = '{"d":1,"n":3,"lambda":[["2"]]}'
PAR_24 = '{"d":2,"n":4,"lambda":[["2","3"]]}'
FERMAT_23 = '{"d":2,"n":3,"lambda":[]}'
OFF_24 = '{"d":2,"n":4,"lambda":[["1","2"]]}'  # lines 2, 4, 5 concurrent
IDENTITY_5 = [["1" if c == r else "0" for c in range(5)] for r in range(5)]


# the arguments before the payload, for verbs whose payload is not the first
LEADING_ARGUMENTS = {"verify-matrix": [FERMAT_23, "2"], "fixed-locus": ["2", "3", "4"],
                     "free": ["2", "3", "4"]}


def matrix_json(first_row):
    """A 4x4 matrix payload: ``first_row`` over the last three identity rows."""
    rows = [first_row] + [["1" if c == r else "0" for c in range(4)] for r in range(1, 4)]
    return json.dumps({"entries": rows})


def dense_cells(order, size, terms=None):
    """A size x size grid of cyclotomic cells of the given order, each with
    ``terms`` (default phi(order) = order - 1 for a prime) coefficients drawn
    from -3..3 by ``random.Random(3)``."""
    r = random.Random(3)
    return [[{"k": order, "coeffs": [str(r.randint(-3, 3)) for _ in range(terms or order - 1)]}
             for _ in range(size)] for _ in range(size)]


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


def child_env():
    """The environment with this checkout's ``src`` first on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    path = os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])])
    return dict(os.environ, PYTHONPATH=path)


def run_child(*argv, timeout=60):
    """``python -m gfermat.cli *argv`` in a fresh child process."""
    return subprocess.run([sys.executable, "-m", "gfermat.cli", *argv], capture_output=True,
                          text=True, env=child_env(), timeout=timeout)


class UnreadableStdin:
    """A stdin whose read fails, as on a broken descriptor."""

    def read(self):
        raise OSError("stdin is unreadable")


class TestDeterminism:
    def test_byte_identical_reports(self, capsys):
        first = run_cli(capsys, "orbit", PAR_13)
        second = run_cli(capsys, "orbit", PAR_13)
        assert first == second
        assert first[0] == EXIT_OK

    def test_pretty_mode_parses_to_same_object(self, capsys):
        _, compact = run_json(capsys, "invariants", "2", "3", "4")
        _, pretty_text = run_cli(capsys, "invariants", "2", "3", "4", "--pretty")
        assert json.loads(pretty_text) == compact


class TestExitCodes:
    def test_malformed_rational_is_validation_error(self, capsys):
        code, report = run_json(capsys, "canon", '{"d":1,"n":3,"lambda":[["1/0"]]}')
        assert code == EXIT_VALIDATION
        assert report["error"]["kind"] == "validation"

    def test_malformed_json_is_validation_error(self, capsys):
        code, _ = run_json(capsys, "orbit", "{not json")
        assert code == EXIT_VALIDATION

    def test_mathematical_precondition_failure(self, capsys):
        code, report = run_json(capsys, "canon", '{"d":1,"n":3,"lambda":[["1"]]}')
        assert code == EXIT_PRECONDITION
        assert report["error"]["kind"] == "precondition"

    def test_budget_exhaustion(self, capsys):
        code, report = run_json(capsys, "orbit", PAR_13, "--budget", "5")
        assert code == EXIT_BUDGET
        assert report["error"]["kind"] == "budget"

    @pytest.mark.parametrize("argv", [("orbit", "P"), ("stabilizer", "P"), ("canon", "P"),
                                      ("aut-order", "P", "3"), ("iso", "P", PAR_13)])
    def test_refused_scan_checks_membership_and_builds_no_table(self, capsys, monkeypatch,
                                                                argv):
        """Past the budget, a parameter off X_{n,d} still exits 3 and one in
        X_{n,d} exits 4 with the same report, and neither builds the minor
        table (the scan's table sweep is gone)."""
        from gfermat import modaction

        monkeypatch.setattr(modaction, "minors", None)
        for par, expected in [
            ('{"d":1,"n":3,"lambda":[["1"]]}',
             (EXIT_PRECONDITION, '{"error":{"kind":"precondition",'
                                 '"message":"parameter is not in X_{n,d}"}}\n')),
            (PAR_13, (EXIT_BUDGET, '{"error":{"kind":"budget",'
                                   '"message":"enumeration needs 24 steps, budget is 23"}}\n')),
        ]:
            assert run_cli(capsys, *[par if a == "P" else a for a in argv],
                           "--budget", "23") == expected

    @pytest.mark.parametrize("argv,code,message", [
        (("fixed-locus", "2", "3", "4", "[1]"), EXIT_VALIDATION, "need at least two exponents"),
        (("verify-matrix", FERMAT_23, "2", "{}"), EXIT_VALIDATION,
         "matrix payload needs 'entries'"),
        (("verify-matrix", FERMAT_23, "2", '{"entries":[1,2,3,4]}'), EXIT_VALIDATION,
         "'entries' must be a list of rows"),
        (("verify-matrix", FERMAT_23, "2", matrix_json([{"k": 4}, "0", "0", "0"])),
         EXIT_VALIDATION, "cyclotomic entry needs a 'coeffs' list"),
        (("verify-matrix", FERMAT_23, "2", matrix_json([{"k": 0, "coeffs": ["1"]}, "0", "0", "0"])),
         EXIT_VALIDATION, "cyclotomic entry order must be positive"),
        (("free", "2", "3", "4", '{"g":[1,0]}'), EXIT_VALIDATION,
         "generators must be a list of exponent vectors"),
        (("free", "2", "3", "4", "[[1,1,0]]"), EXIT_VALIDATION,
         "exponent vectors must have length n+1"),
        (("invariants", "2", "4", "3", "--pluri", "0"), EXIT_VALIDATION,
         "plurigenus indices must be positive"),
        (("restrict-line", PAR_24, '["1","2"]'), EXIT_VALIDATION,
         "rho must be a list of three rationals"),
        (("canon", OFF_24), EXIT_PRECONDITION, "parameter is not in X_{n,d}"),
        (("equations", OFF_24, "3"), EXIT_PRECONDITION, "parameter is not in X_{n,d}"),
        (("verify-matrix", OFF_24, "3", json.dumps({"entries": IDENTITY_5})), EXIT_PRECONDITION,
         "parameter is not in X_{n,d}"),
        (("restrict-line", OFF_24, '["1","2","5"]'), EXIT_PRECONDITION,
         "parameter is not in X_{n,2}"),
        (("conic-eta", "3", OFF_24), EXIT_PRECONDITION, "parameter is not in X_{n,2}"),
    ], ids=["one-exponent", "no-entries", "rows-not-lists", "cell-without-coeffs", "order-0",
            "generators-not-a-list", "generator-length", "pluri-0", "rho-two", "canon-off-X",
            "equations-off-X", "verify-off-X", "line-off-X", "conic-off-X"])
    def test_refusals_print_their_texts(self, capsys, argv, code, message):
        kind = "validation" if code == EXIT_VALIDATION else "precondition"
        line = json.dumps({"error": {"kind": kind, "message": message}},
                          sort_keys=True, separators=(",", ":"))
        assert run_cli(capsys, *argv) == (code, line + "\n")

    def test_budget_from_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("GFERMAT_BUDGET", "5")
        code, report = run_json(capsys, "orbit", PAR_13)
        assert code == EXIT_BUDGET
        code, _ = run_json(capsys, "orbit", PAR_13, "--budget", "100")
        assert code == EXIT_OK

    @pytest.mark.parametrize("value", ["abc", "", "1.5", "0", "-5"])
    def test_bad_budget_from_environment(self, capsys, monkeypatch, value):
        monkeypatch.setenv("GFERMAT_BUDGET", value)
        code, report = run_json(capsys, "invariants", "2", "4", "3")
        assert code == EXIT_VALIDATION
        assert report["error"]["kind"] == "validation"

    @pytest.mark.parametrize("value", ["0", "-5", "abc"])
    def test_bad_budget_option(self, capsys, value):
        code, report = run_json(capsys, "invariants", "2", "4", "3", "--budget", value)
        assert code == EXIT_VALIDATION
        assert report["error"]["kind"] == "validation"

    @pytest.mark.parametrize("argv", [
        ["fixed-locus", "x", "3", "3", "[1,1,2,0]"],
        ["fixed-locus", "2", "3", "3"],
        ["orbit"],
        [],
        ["no-such-verb"],
        ["orbit", PAR_13, "--no-such-flag"],
        ["orbit", "--help"],
        ["orbit", PAR_13, "-h"],
        ["invariants", "2", "4", "3", "--help"],
        ["--help"],
        ["-h"],
    ])
    def test_usage_errors_are_validation_errors(self, capsys, argv):
        code, report = run_json(capsys, *argv)
        assert code == EXIT_VALIDATION
        assert report["error"]["kind"] == "validation"

    @pytest.mark.parametrize("verb,payload", [
        ("orbit", '{"d":[],"n":3,"lambda":[]}'),
        ("normalize", '{"d":1,"points":[1,2,3]}'),
        ("canon", '{"d":1.5,"n":3,"lambda":[["2"]]}'),
        ("canon", '{"d":1,"n":3.9,"lambda":[["2"]]}'),
        ("canon", '{"d":1.5,"n":3.9,"lambda":[["2"]]}'),
        ("canon", '{"d":1.0,"n":3,"lambda":[["2"]]}'),
        ("orbit", '{"d":true,"n":3,"lambda":[["2"]]}'),
        ("orbit", '{"d":1,"n":false,"lambda":[["2"]]}'),
        ("normalize", '{"d":2.5,"points":[["1","0","0"],["0","1","0"],["0","0","1"],'
                      '["1","1","1"]]}'),
        ("verify-matrix", matrix_json([{"k": 2.9, "coeffs": ["1"]}, "0", "0", "0"])),
        ("verify-matrix", matrix_json([{"k": True, "coeffs": ["1"]}, "0", "0", "0"])),
        ("verify-matrix", matrix_json([{"k": "4", "coeffs": ["1"]}, "0", "0", "0"])),
        ("fixed-locus", "[true,false,1,2,0]"),
        ("free", "[[1,1,0,0,0],[0,true,1,0,0]]"),
    ])
    def test_mistyped_payload_fields_are_validation_errors(self, capsys, verb, payload):
        code, report = run_json(capsys, verb, *LEADING_ARGUMENTS.get(verb, ()), payload)
        assert code == EXIT_VALIDATION
        assert report["error"]["kind"] == "validation"

    def test_verify_matrix_shape_checked_before_fields(self, capsys, monkeypatch):
        """A 1x1 matrix tagged with order 100000 is refused for its shape
        before any cyclotomic scalar (and so Phi_100000) is built."""
        def refuse(cls, *args):
            raise AssertionError("built a cyclotomic scalar")

        monkeypatch.setattr(CyclotomicScalar, "from_poly", classmethod(refuse))
        matrix = json.dumps({"entries": [[{"k": 100000, "coeffs": ["1"]}]]})
        code, report = run_json(capsys, "verify-matrix", FERMAT_23, "2", matrix)
        assert code == EXIT_VALIDATION
        assert report["error"]["kind"] == "validation"

    def test_rational_matrix_builds_no_cyclotomic_field(self, capsys, monkeypatch):
        """Rational cells stay rational: the identity is verified at k=20000
        without building Phi_20000 (or any cyclotomic polynomial)."""
        def refuse(k):
            raise AssertionError(f"built Phi_{k}")

        monkeypatch.setattr("gfermat.exactfield.cyclotomic_polynomial", refuse)
        identity = matrix_json(["1", "0", "0", "0"])
        code, out = run_cli(capsys, "verify-matrix", FERMAT_23, "20000", identity)
        assert (code, out) == (EXIT_OK, '{"accepted":true}\n')

    def test_huge_prime_degree_is_refused_by_budget(self):
        """k = 2^89 - 1 is prime, so the bound's primality test would try
        isqrt(k) - 1 (about 2.5 * 10^13) divisors: a fresh child exits 4 at once."""
        started = time.monotonic()
        done = run_child("free", "1", str(2**89 - 1), "2", "[[0,0,0]]")
        assert time.monotonic() - started < 5
        assert done.returncode == EXIT_BUDGET, done.stderr
        assert done.stdout.count("\n") == 1 and not done.stderr
        assert json.loads(done.stdout)["error"] == {
            "kind": "budget", "message": "enumeration needs 24879108095802 steps, budget is 1000000"}

    def test_large_subgroup_is_refused_within_bounds(self):
        """phi_1, ..., phi_24 generate 2^24 elements: a fresh child refuses
        before any element is formed."""
        gens = json.dumps([[int(i == j) for i in range(25)] for j in range(24)])
        started = time.monotonic()
        done = run_child("free", "1", "2", "24", gens)
        assert time.monotonic() - started < 5
        assert done.returncode == EXIT_BUDGET, done.stderr
        assert done.stdout == ('{"error":{"kind":"budget","message":'
                               '"enumeration needs 1000001 steps, budget is 1000000"}}\n')

    def test_large_subgroup_is_refused_before_any_element(self, capsys):
        """The same refusal in process, with the subgroup closure made to
        fail: the order comes from the triangular basis alone."""
        gens = json.dumps([[int(i == j) for i in range(25)] for j in range(24)])
        with mock.patch("gfermat.fermatgroup._subgroup_closure", side_effect=AssertionError):
            code, out = run_cli(capsys, "free", "1", "2", "24", gens)
        assert (code, out) == (EXIT_BUDGET, '{"error":{"kind":"budget","message":'
                                            '"enumeration needs 1000001 steps, budget is 1000000"}}\n')

    def test_primality_charge_is_one_step_per_divisor(self, capsys):
        """The prime 10^9 + 7 takes isqrt(k) - 1 = 31621 trial divisions: a
        budget of exactly that answers, one less is refused; a composite k
        stops at its least factor."""
        argv = ["free", "1", str(10**9 + 7), "2", "[[0,0,0]]", "--budget"]
        code, report = run_json(capsys, *argv, "31621")
        assert code == EXIT_OK and report["bound"]["p"] == 10**9 + 7
        code, report = run_json(capsys, *argv, "31620")
        assert code == EXIT_BUDGET
        assert report["error"]["message"] == "enumeration needs 31621 steps, budget is 31620"
        code, report = run_json(capsys, "free", "1", str(10**9 + 8), "2", "[[0,0,0]]",
                                "--budget", "1")
        assert code == EXIT_OK and report["bound"] is None

    @pytest.mark.parametrize("degree,cell", [
        ("2", {"k": 100000, "coeffs": ["1"]}),
        ("100000", {"coeffs": ["1"]}),
    ])
    def test_huge_entry_order_is_refused_by_budget(self, degree, cell):
        """An explicit order 100000, or an untagged cell under degree 100000,
        is charged 100000^2 * 4^2 and refused with exit 4 in a fresh child,
        without building Phi_100000."""
        started = time.monotonic()
        done = run_child("verify-matrix", FERMAT_23, degree, matrix_json([cell, "0", "0", "0"]))
        assert time.monotonic() - started < 5
        assert done.returncode == EXIT_BUDGET, done.stderr
        assert done.stdout.count("\n") == 1 and not done.stderr
        assert json.loads(done.stdout)["error"] == {
            "kind": "budget", "message": "enumeration needs 160000000000 steps, budget is 1000000"}

    def test_dense_order_101_matrix_is_rejected_within_20_s(self):
        """A 4x4 non-monomial matrix of 30-term cells at k = 101 (charged
        163216 steps) is rejected by a fresh child within 5 s (20 s before
        the certificates): its determinant is nonzero modulo a split prime,
        so no pivot is inverted by the norm."""
        rows = dense_cells(101, 4, terms=30)
        done = run_child("verify-matrix", FERMAT_23, "2", json.dumps({"entries": rows}),
                         timeout=5)
        assert done.returncode == EXIT_OK, done.stderr
        assert done.stdout == '{"accepted":false}\n'

    @pytest.mark.parametrize("parameter,degree,entries,stdout", [
        # monomial, rejected by a span equation mod p: 2^k is never formed
        (FERMAT_23, "1000000000", [["2", "0", "0", "0"], ["0", "1", "0", "0"],
                                   ["0", "0", "1", "0"], ["0", "0", "0", "1"]],
         '{"accepted":false}\n'),
        # a scalar matrix, scaled by 1/2^k: every power is 1
        (FERMAT_23, "1000000000", [[str(2 * int(r == c)) for c in range(4)] for r in range(4)],
         '{"accepted":true}\n'),
        # a nonsingular 3x3 grid of dense k = 331 cells (charged 986049
        # steps): its determinant is nonzero mod p, so no exact one is taken
        ('{"d":1,"n":2,"lambda":[]}', "2", dense_cells(331, 3), '{"accepted":false}\n'),
    ])
    def test_certified_verdicts_answer_within_2_s(self, parameter, degree, entries, stdout):
        started = time.monotonic()
        done = run_child("verify-matrix", parameter, degree, json.dumps({"entries": entries}),
                         timeout=10)
        assert time.monotonic() - started < 2
        assert done.returncode == EXIT_OK, done.stderr
        assert done.stdout == stdout

    def test_singular_dense_grid_is_refused_within_2_s(self):
        """The 3x3 grid of dense k = 331 cells with its third row equal to
        its second (charged 986049 steps) is refused as singular by a fresh
        child within 2 s: one split prime's 330 determinants pass the
        Hadamard bound, so no cyclotomic pivot is inverted."""
        rows = dense_cells(331, 3)
        rows[2] = rows[1]
        started = time.monotonic()
        done = run_child("verify-matrix", '{"d":1,"n":2,"lambda":[]}', "2",
                         json.dumps({"entries": rows}), timeout=10)
        assert time.monotonic() - started < 2
        assert done.returncode == EXIT_PRECONDITION, done.stderr
        assert done.stdout == '{"error":{"kind":"precondition","message":"matrix is singular"}}\n'

    @pytest.mark.parametrize("last,code,stdout", [
        ('"1"', EXIT_OK, '{"accepted":false}\n'),
        ('{"k":1,"coeffs":["2/3"]}', EXIT_PRECONDITION,
         '{"error":{"kind":"precondition","message":"matrix is singular"}}\n'),
    ], ids=("nonsingular", "singular"))
    def test_order_one_cells_are_decided_in_q(self, capsys, last, code, stdout):
        """Non-monomial matrices of {"k": 1} cells lie in Q(zeta_1) = Q: an
        invertible one is rejected, and one whose last row is 2/3 times its
        first is refused as singular."""
        one = '{"k":1,"coeffs":["1"]}'
        payload = ('{"entries":[[' + one + ',' + one + ',"0","0"],["0","1","0","1"],'
                   '["0","0","1","0"],[{"k":1,"coeffs":["2/3"]},' + last + ',"0","0"]]}')
        assert run_cli(capsys, "verify-matrix", FERMAT_23, "2", payload) == (code, stdout)

    @pytest.mark.parametrize("cells,needed", [
        ([{"coeffs": ["0", "1"]}], 3**2 * 4**2),
        ([{"k": 4, "coeffs": ["1"]}, {"k": 6, "coeffs": ["1"]}], 12**2 * 4**2),
    ])
    def test_verify_matrix_charge_is_lcm_order_squared_times_size_squared(
            self, capsys, cells, needed):
        """The charge L^2 (n+1)^2 uses the lcm L of the cells' orders: a
        budget of exactly the charge verifies, one less is refused."""
        diagonal = [[cells[r] if r < len(cells) and c == r else str(int(c == r))
                     for c in range(4)] for r in range(4)]
        matrix = json.dumps({"entries": diagonal})
        code, _ = run_json(capsys, "verify-matrix", FERMAT_23, "3", matrix,
                           "--budget", str(needed))
        assert code == EXIT_OK
        code, report = run_json(capsys, "verify-matrix", FERMAT_23, "3", matrix,
                                "--budget", str(needed - 1))
        assert code == EXIT_BUDGET
        assert report["error"]["message"] == \
            f"enumeration needs {needed} steps, budget is {needed - 1}"

    @pytest.mark.parametrize("stdin", [None, UnreadableStdin()])
    def test_unreadable_stdin_is_validation_error(self, capsys, monkeypatch, stdin):
        monkeypatch.setattr("sys.stdin", stdin)
        code, report = run_json(capsys, "canon", "-")
        assert code == EXIT_VALIDATION
        assert report["error"]["kind"] == "validation"

    def test_closed_stdin_is_validation_error(self):
        """``canon - <&-``: the child starts with no stdin at all."""
        command = f'"{sys.executable}" -m gfermat.cli canon - <&-'
        done = subprocess.run(["sh", "-c", command], env=child_env(),
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == EXIT_VALIDATION, done.stderr
        assert json.loads(done.stdout)["error"]["kind"] == "validation"
        assert done.stdout.count("\n") == 1 and not done.stderr

    def test_undecodable_payload_file_is_validation_error(self, capsys, tmp_path):
        path = tmp_path / "par.json"
        path.write_bytes(b"\xff\xfe{")
        code, report = run_json(capsys, "canon", f"@{path}")
        assert code == EXIT_VALIDATION
        assert report["error"]["kind"] == "validation"

    def test_large_invariants_finish(self, capsys):
        """A large degree answers at once: each section count is O(n-d) binomials."""
        code, out = run_cli(capsys, "invariants", "2", "2000", "40")
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["r1"] == 75959 and out.count("\n") == 1

    def test_report_integers_past_the_digit_limit_are_printed(self, capsys):
        """pa of type (1198; 1000000, 1200) has more digits than CPython's
        default int-to-str limit (4300): a fresh child prints the one exact
        JSON object, and in process the limit is back in place afterwards."""
        gfm_type = GfmType(1198, 1000000, 1200)
        started = time.monotonic()
        done = run_child("invariants", "1198", "1000000", "1200")
        assert time.monotonic() - started < 5
        assert done.returncode == EXIT_OK, done.stderr
        assert done.stdout.count("\n") == 1 and not done.stderr
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if limit:
            sys.set_int_max_str_digits(0)
        try:
            report = json.loads(done.stdout)
            pa = hilbert_series_coefficient(gfm_type, canonical_degree(gfm_type))
            assert report["pa"] == pa and len(str(pa)) > 4300
        finally:
            if limit:
                sys.set_int_max_str_digits(limit)
        code, _ = run_cli(capsys, "invariants", "1198", "1000000", "1200")
        assert code == EXIT_OK
        assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == limit

    @pytest.mark.parametrize("argv", [("conic", "1e1000000"), ("conic", "1E-3000000"),
                                      ("kummer", "1e2000000", "2", "3", "4", "5", "6"),
                                      ("conic", " 2.5e0_004_301 "), ("conic", "1e" + "9" * 5000)])
    def test_exponents_past_the_digit_limit_are_refused(self, argv):
        """Fraction builds 10^|exponent| before any digit limit applies, so an
        exponent past CPython's int-to-str limit is refused first, as a
        validation error, like a digit string past the limit."""
        if not getattr(sys, "get_int_max_str_digits", lambda: 0)():
            pytest.skip("the int-to-str digit limit is off")
        done = run_child(*argv, timeout=10)
        assert done.returncode == EXIT_VALIDATION, done.stderr
        assert "exponent over the limit" in json.loads(done.stdout)["error"]["message"]

    def test_exponent_limit_boundary(self, capsys):
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not limit:
            pytest.skip("the int-to-str digit limit is off")
        assert rational_from_string(f"1e{limit}") == 10**limit
        assert rational_from_string(f"1e-{limit}") == Fraction(1, 10**limit)
        for text in (f"1e{limit + 1}", f"-3.5E-{limit + 1}", "1" * (limit + 1)):
            with pytest.raises(ValidationError):
                rational_from_string(text)
        code, report = run_json(capsys, "conic", f"1e{limit + 1}")
        assert code == EXIT_VALIDATION and report["error"]["kind"] == "validation"

    def test_degenerate_conic_parameter(self, capsys):
        code, _ = run_json(capsys, "conic", "2")
        assert code == EXIT_PRECONDITION

    def test_type_domain_violations_are_preconditions(self, capsys):
        code, _ = run_json(capsys, "invariants", "3", "2", "3")  # n <= d
        assert code == EXIT_PRECONDITION
        code, _ = run_json(capsys, "fixed-locus", "2", "1", "3", "[0,0,0,0]")
        assert code == EXIT_PRECONDITION  # k < 2
        code, _ = run_json(capsys, "classify-low-n", "2", "3")
        assert code == EXIT_PRECONDITION  # wrong entry point


class TestVerbs:
    def test_invariants_k3(self, capsys):
        code, report = run_json(capsys, "invariants", "2", "4", "3", "--pluri", "1,2,5")
        assert code == EXIT_OK
        assert report["label"] == "K3"
        assert set(report["plurigenera"].values()) == {1}

    def test_classify_low_n(self, capsys):
        code, report = run_json(capsys, "classify-low-n", "3", "3")
        assert code == EXIT_OK
        assert report["case"] == "projective-space"

    def test_normalize_round_trips_parameter(self, capsys):
        arrangement = json.dumps({
            "d": 1,
            "points": [["1", "0"], ["0", "1"], ["1", "1"], ["2", "1"]],
        })
        code, report = run_json(capsys, "normalize", arrangement)
        assert code == EXIT_OK
        assert report["parameter"] == {"d": 1, "n": 3, "lambda": [["2"]]}

    def test_orbit_and_canon(self, capsys):
        code, report = run_json(capsys, "orbit", PAR_13)
        assert code == EXIT_OK
        assert report["orbit_size"] == 3
        assert report["stabilizer_order"] == 8
        values = [p["lambda"][0][0] for p in report["elements"]]
        assert values == ["-1", "1/2", "2"]
        code, report = run_json(capsys, "canon", PAR_13)
        assert report["parameter"]["lambda"] == [["-1"]]

    @pytest.mark.parametrize("payload", ['{"d":1,"n":6,"lambda":[["2"],["5"],["-3"],["7/3"]]}',
                                         FERMAT_23])
    def test_orbit_shares_row_strings_like_elementwise_to_json(self, capsys, payload):
        """The ``orbit`` verb stringifies each distinct row once; its stdout
        is that of ``to_json`` taken element by element."""
        from gfermat.modaction import orbit_and_stabilizer

        par = StandardParameter.from_json(json.loads(payload))
        report = orbit_and_stabilizer(par)
        expected = {
            "base": par.to_json(),
            "elements": [element.to_json() for element in report.elements],
            "orbit_size": report.orbit_size,
            "stabilizer": [list(s.one_line()) for s in report.stabilizer],
            "stabilizer_order": report.stabilizer_order,
            "kernel_note": report.kernel_note,
        }
        assert report.orbit_size * report.stabilizer_order == math.factorial(par.n + 1)
        code, out = run_cli(capsys, "orbit", payload)
        assert code == EXIT_OK
        # compared outside the assert, which would diff the two long lines
        same = out == json.dumps(expected, sort_keys=True, separators=(",", ":")) + "\n"
        assert same

    def test_stabilizer(self, capsys):
        code, report = run_json(capsys, "stabilizer", FERMAT_23)
        assert code == EXIT_OK
        assert report["stabilizer_order"] == 24

    def test_iso_with_witness(self, capsys):
        other = '{"d":1,"n":3,"lambda":[["1/2"]]}'
        code, report = run_json(capsys, "iso", PAR_13, other)
        assert code == EXIT_OK
        assert report["isomorphic"] is True
        assert isinstance(report["witness"], list)
        code, report = run_json(capsys, "iso", PAR_13, '{"d":1,"n":3,"lambda":[["5"]]}')
        assert report["isomorphic"] is False

    def test_iso_exceptional_note(self, capsys):
        par = '{"d":2,"n":5,"lambda":[["2","3"],["5","7"]]}'
        code, report = run_json(capsys, "iso", par, par, "--degree", "2")
        assert code == EXIT_OK
        assert report["note"] == "linear-category"

    def test_equations(self, capsys):
        code, report = run_json(capsys, "equations", PAR_24, "4")
        assert code == EXIT_OK
        assert report["text"] == [
            "x1^4 + x2^4 + x3^4 + x4^4",
            "2*x1^4 + 3*x2^4 + x3^4 + x5^4",
        ]
        assert report["smooth"] is True

    def test_equations_sweeps_the_minors_once(self, capsys, monkeypatch):
        from gfermat import arrangement, modaction, rational

        sweeps = []

        def counting(columns):
            sweeps.append(len(columns))
            return rational.minors(columns)

        for module in (arrangement, modaction):
            monkeypatch.setattr(module, "minors", counting)
        code, report = run_json(capsys, "equations", PAR_24, "4")
        assert (code, report["smooth"], sweeps) == (EXIT_OK, True, [5])

    @settings(max_examples=100, deadline=None)
    @given(tables())
    def test_smooth_is_the_smoothness_certificate(self, table):
        """A table exits 3 exactly when the certificate fails, and every
        printed report says ``"smooth": true``."""
        d, n, rows = table
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["equations", json.dumps(StandardParameter(*table).to_json()), "3"])
        if smoothness_certificate(EquationSystem.from_table(d, n, 3, rows)):
            assert (code, json.loads(out.getvalue())["smooth"]) == (EXIT_OK, True)
        else:
            assert code == EXIT_PRECONDITION

    def test_fixed_locus(self, capsys):
        code, report = run_json(
            capsys, "fixed-locus", "2", "3", "3", "[1,1,2,0]"
        )
        assert code == EXIT_OK
        assert len(report["components"]) == 1
        assert report["components"][0]["point_count"] == 3

    def test_free(self, capsys):
        gens = "[[1,1,0,0,0,0],[0,1,1,0,0,0],[0,0,1,1,0,0],[0,0,0,1,1,0]]"
        code, report = run_json(capsys, "free", "1", "2", "5", gens)
        assert code == EXIT_OK
        assert report["free"] is True
        assert report["subgroup_order"] == 16
        assert report["bound"] == {"p": 2, "r": 1, "feasible": False}

    def test_aut_order(self, capsys):
        code, report = run_json(capsys, "aut-order", FERMAT_23, "4")
        assert code == EXIT_OK
        assert report["order"] == 24 * 64
        assert report["category"] == "Lin"

    def test_verify_matrix(self, capsys):
        matrix = json.dumps({"entries": [
            [{"coeffs": ["0", "1"]}, "0", "0", "0", "0"],
            ["0", "1", "0", "0", "0"],
            ["0", "0", "1", "0", "0"],
            ["0", "0", "0", "1", "0"],
            ["0", "0", "0", "0", "1"],
        ]})
        code, report = run_json(capsys, "verify-matrix", PAR_24, "3", matrix)
        assert code == EXIT_OK
        assert report["accepted"] is True
        bad = json.dumps({"entries": [
            ["1", "1", "0", "0", "0"],
            ["0", "1", "0", "0", "0"],
            ["0", "0", "1", "0", "0"],
            ["0", "0", "0", "1", "0"],
            ["0", "0", "0", "0", "1"],
        ]})
        code, report = run_json(capsys, "verify-matrix", PAR_24, "3", bad)
        assert report["accepted"] is False

    def test_kummer(self, capsys):
        code, report = run_json(capsys, "kummer", "0", "1", "2", "3", "4", "5")
        assert code == EXIT_OK
        assert report["columns"] == [["3/2", "9/5"], ["4/3", "3/2"]]

    def test_negative_rational_arguments_are_values(self, capsys):
        code, report = run_json(capsys, "conic", "-3/2")
        assert code == EXIT_OK
        assert report["coefficients"] == tangent_conic(Fraction(-3, 2)).to_json()["coefficients"]
        code, report = run_json(capsys, "conic", "-.5", "--pretty")
        assert code == EXIT_OK
        alphas = ["-7/2", "-1", "0", "1/3", "2", "5"]
        code, report = run_json(capsys, "kummer", *alphas)
        assert code == EXIT_OK
        assert report["parameter"] == kummer_parameters([Fraction(a) for a in alphas]).to_json()

    def test_restrict_line(self, capsys):
        par = json.dumps(json.loads(run_cli(
            capsys, "kummer", "0", "1", "2", "3", "4", "5")[1])["parameter"])
        code, report = run_json(capsys, "restrict-line", par, '["1","2","7"]')
        assert code == EXIT_OK
        assert len(report["eta"]["lambda"]) == 3
        assert report["singular"] is False

    def test_conic_and_conic_eta(self, capsys):
        code, report = run_json(capsys, "conic", "1")
        assert code == EXIT_OK
        assert report["coefficients"] == ["4", "1", "1", "4", "4", "-2"]
        code, report = run_json(capsys, "conic-eta", "1", FERMAT_23)
        assert code == EXIT_OK
        assert len(report["eta"]["lambda"]) == 1

    def test_payload_from_stdin(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(PAR_13))
        code, report = run_json(capsys, "canon", "-")
        assert code == EXIT_OK
        assert report["parameter"]["lambda"] == [["-1"]]

    def test_payload_from_file(self, capsys, tmp_path):
        path = tmp_path / "par.json"
        path.write_text(PAR_13, encoding="utf-8")
        code, report = run_json(capsys, "canon", f"@{path}")
        assert code == EXIT_OK
        assert report["parameter"]["lambda"] == [["-1"]]

    def test_output_round_trips_schema(self, capsys):
        code, report = run_json(capsys, "canon", PAR_24)
        assert code == EXIT_OK
        assert StandardParameter.from_json(report["parameter"]).to_json() == report["parameter"]


FRAME_1 = [["1", "0"], ["0", "1"], ["1", "1"]]

# (library reader, verb reading the same payload, payload, start of the message)
MALFORMED = [
    (StandardParameter, "canon", {"d": 1.9, "n": 3, "lambda": [["2"]]},
     "'d' must be a JSON integer, got 1.9"),
    (StandardParameter, "canon", {"d": True, "n": 3, "lambda": [["2"]]},
     "'d' must be a JSON integer, got True"),
    (StandardParameter, "canon", {"d": "1", "n": 3, "lambda": [["2"]]},
     "'d' must be a JSON integer, got '1'"),
    (StandardParameter, "canon", {"d": 1, "n": 3.0, "lambda": [["2"]]},
     "'n' must be a JSON integer, got 3.0"),
    (StandardParameter, "canon", {"d": 1, "n": False, "lambda": [["2"]]},
     "'n' must be a JSON integer, got False"),
    (StandardParameter, "canon", {"d": 1, "n": "3", "lambda": [["2"]]},
     "'n' must be a JSON integer, got '3'"),
    (StandardParameter, "canon", {"d": 1, "n": 3, "lambda": [[True]]},
     "booleans are not rationals"),
    (StandardParameter, "canon", {"d": 1, "n": 3, "lambda": [[2.5]]},
     "expected a rational string, got 2.5"),
    (StandardParameter, "canon", {"d": 1, "n": 3, "lambda": [[None]]},
     "expected a rational string, got None"),
    (StandardParameter, "canon", {"d": 1, "n": 3, "lambda": [["1e100000000"]]},
     "malformed rational '1e100000000': exponent over the limit"),
    (StandardParameter, "canon", {"d": 1, "n": 3, "lambda": [["1/0"]]},
     "malformed rational '1/0': "),
    (StandardParameter, "canon", {"d": 1, "n": 3, "lambda": "2"},
     "'lambda' must be a list of rows"),
    (StandardParameter, "canon", {"d": 1, "n": 3, "lambda": ["2"]},
     "'lambda' must be a list of rows"),
    (StandardParameter, "canon", {"d": 1, "lambda": [["2"]]},
     "parameter payload is missing 'n'"),
    (StandardParameter, "canon", ["d", "n", "lambda"], "parameter payload must be an object"),
    (StandardParameter, "canon", {"d": 1, "n": 3, "lambda": []},
     "parameter table must have n-d-1 rows"),
    (StandardParameter, "canon", {"d": 1, "n": 3, "lambda": [["2", "3"]]},
     "parameter table rows must have d entries"),
    (Arrangement, "normalize", {"d": 1.5, "points": FRAME_1 + [["2", "3"]]},
     "'d' must be a JSON integer, got 1.5"),
    (Arrangement, "normalize", {"d": True, "points": FRAME_1 + [["2", "3"]]},
     "'d' must be a JSON integer, got True"),
    (Arrangement, "normalize", {"d": 1, "points": FRAME_1 + [["2", False]]},
     "booleans are not rationals"),
    (Arrangement, "normalize", {"d": 1, "points": FRAME_1 + [["2", 0.5]]},
     "expected a rational string, got 0.5"),
    (Arrangement, "normalize", {"d": 1, "points": FRAME_1 + [["2", None]]},
     "expected a rational string, got None"),
    (Arrangement, "normalize", {"d": 1, "points": FRAME_1 + [["2", "-3E+100000000"]]},
     "malformed rational '-3E+100000000': exponent over the limit"),
    (Arrangement, "normalize", {"d": 1, "points": FRAME_1 + [["2", "1/0"]]},
     "malformed rational '1/0': "),
    (Arrangement, "normalize", {"d": 1, "points": FRAME_1 + [5]},
     "'int' object is not iterable"),
    (Arrangement, "normalize", {"d": 1, "points": FRAME_1 + [["2"]]},
     "hyperplane dual points must have length d+1"),
    (Arrangement, "normalize", {"d": 1, "points": {"0": ["1", "0"]}},
     "'points' must be a list of dual points"),
    (Arrangement, "normalize", {"points": FRAME_1}, "arrangement payload needs 'd' and 'points'"),
    (Arrangement, "normalize", {"d": 1}, "arrangement payload needs 'd' and 'points'"),
]


class TestPayloadReaders:
    """The library readers are the only readers of the parameter and
    arrangement payloads: the CLI prints exactly their messages."""

    @pytest.mark.parametrize("reader,verb,payload,start", MALFORMED)
    def test_library_and_cli_refuse_alike(self, capsys, reader, verb, payload, start):
        if "limit" in start and not getattr(sys, "get_int_max_str_digits", lambda: 0)():
            pytest.skip("the int-to-str digit limit is off")
        with pytest.raises(ValidationError) as refused:
            reader.from_json(payload)
        assert str(refused.value).startswith(start)
        code, report = run_json(capsys, verb, json.dumps(payload))
        assert code == EXIT_VALIDATION
        assert report["error"] == {"kind": "validation", "message": str(refused.value)}

    def test_cli_raises_the_library_error_class(self):
        assert cli.ValidationError is ValidationError and issubclass(ValidationError, ValueError)

    @pytest.mark.parametrize("value", [True, False, 2.5, Fraction(1, 2), None, ["1"]])
    def test_only_json_integers_and_strings_are_rationals(self, value):
        with pytest.raises(ValidationError):
            rational_from_string(value)

    def test_huge_exponent_is_refused_at_once(self):
        if not getattr(sys, "get_int_max_str_digits", lambda: 0)():
            pytest.skip("the int-to-str digit limit is off")
        start = time.perf_counter()
        with pytest.raises(ValidationError):
            rational_from_string("1e100000000")
        with pytest.raises(ValidationError):
            StandardParameter.from_json({"d": 1, "n": 3, "lambda": [["1e100000000"]]})
        with pytest.raises(ValidationError):
            Arrangement.from_json({"d": 1, "points": FRAME_1 + [["1e100000000", "1"]]})
        assert time.perf_counter() - start < 1


VERBS = ["normalize", "orbit", "stabilizer", "iso", "canon", "equations", "fixed-locus",
         "free", "aut-order", "verify-matrix", "invariants", "kummer", "restrict-line",
         "conic", "conic-eta", "classify-low-n"]
PAYLOADS = [PAR_13, PAR_24, FERMAT_23, '{"d":2,"n":5,"lambda":[["2","3"],["5","7"]]}',
            "[1,1,2,0]", "[0,1,2,0,1]", "[[1,1,0,0,0,0],[0,1,1,0,0,0]]", '["1","2","7"]',
            '{"entries":[["1","0"],["0","1"]]}', '{"d":1,"points":[["1","0"],["0","1"],["1","1"]]}',
            "{not json", "[1,", '{"d":1}', '{"d":1,"n":3,"lambda":[["1/0"]]}', "null", "[]", "{}",
            '{"d":[],"n":3,"lambda":[]}', '{"d":1,"points":[1,2,3]}', "-"]
ARGUMENTS = st.one_of(
    st.integers(-3, 8).map(str),
    st.fractions(-3, 8, max_denominator=4).map(str),
    st.text(alphabet="ax/.{}[]\":,-0123456789 ", max_size=6),
    st.sampled_from(PAYLOADS),
)
ARGVS = st.one_of(
    st.tuples(st.sampled_from(VERBS), st.lists(ARGUMENTS, max_size=6))
    .map(lambda t: [t[0], *t[1]]),
    st.tuples(st.integers(-3, 8), st.integers(-3, 10**4), st.integers(-3, 60))
    .map(lambda t: ["invariants", *map(str, t)]),
)


def closed_stdin():
    """``sys.stdin`` of a process started with its stdin closed."""
    return None


STDINS = st.sampled_from((io.StringIO, closed_stdin, UnreadableStdin))
OPTIONS = st.sampled_from([[], ["--pretty"], ["--budget", "5"], ["--budget", "1000"],
                           ["--budget", "abc"], ["--degree", "3"], ["--pluri", "1,x"],
                           ["-h"], ["--help"]])


class TestContractProperty:
    """Every argv gives exactly one JSON object on stdout and a documented
    exit code, and never raises.  Most numeric arguments stay in -3..8; the
    ``invariants`` verb, whose work is O(n-d) binomials, also draws k up to
    10^4 and n up to 60.  A ``-`` payload reads an empty, a closed (None)
    or an unreadable stdin."""

    @settings(max_examples=300, deadline=None)
    @given(ARGVS, OPTIONS, STDINS)
    @example(["canon", "-"], [], closed_stdin)
    @example(["orbit", "-"], ["--pretty"], UnreadableStdin)
    def test_one_json_object_and_documented_exit(self, argv, options, stdin):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), mock.patch("sys.stdin", stdin()):
            code = main([*argv, *options])
        assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_PRECONDITION, EXIT_BUDGET)
        assert isinstance(json.loads(out.getvalue()), dict)


def doc_path(*parts):
    return os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), *parts)


class TestDocs:
    def test_schema_verb_table_matches_verbs(self):
        """Each row of the ``## Verbs`` table in docs/SCHEMAS.md names one
        key of ``cli.VERBS`` with its positional count and its own options."""
        with open(doc_path("docs", "SCHEMAS.md"), encoding="utf-8") as handle:
            section = handle.read().split("## Verbs\n", 1)[1].split("\n## ", 1)[0]
        documented = {}
        for usage in re.findall(r"^\| `([^`]+)` \|", section, re.M):
            options = re.findall(r"\[(--[\w-]+)", usage)
            verb, *positionals = re.sub(r"\[[^\]]*\]", "", usage).split()
            documented[verb] = (len(positionals), options)
        assert documented == {
            verb: (sum(kw.get("nargs", 1) for name, kw in arguments.items()
                       if not name.startswith("-")),
                   [name for name in arguments if name.startswith("-")])
            for verb, (_, arguments) in cli.VERBS.items()
        }

    def test_readme_has_an_example_per_verb(self):
        with open(doc_path("README.md"), encoding="utf-8") as handle:
            examples = re.findall(r"^gfermat ([\w-]+)", handle.read(), re.M)
        assert sorted(set(examples)) == sorted(cli.VERBS)
