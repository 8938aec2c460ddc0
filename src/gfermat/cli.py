"""Batch command-line front end.

One verb per invocation, one self-describing JSON report on stdout.  All
output is deterministic: keys are sorted, sets are emitted in canonical
order, rationals are in lowest terms.  Exit codes: 0 success, 2 validation
failure (payload or arguments), 3 mathematical precondition failure, 4
enumeration budget exhausted.

JSON payloads are passed as positional arguments; an argument of the form
``@path`` reads the file, and ``-`` reads stdin.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys

from .errors import DEFAULT_BUDGET, BudgetExceeded, ValidationError

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing
if TYPE_CHECKING:
    from .arrangement import StandardParameter
    from .exactfield import ExactMatrix
    from .fermatgroup import GroupElement
    from .invariants import GfmType

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_PRECONDITION = 3
EXIT_BUDGET = 4

DEFAULT_BUDGET_ENV = "GFERMAT_BUDGET"


def _read_payload_text(arg: str) -> str:
    """The payload text of ``arg``; an unreadable or undecodable stdin or
    file is a validation error (``ValueError``: a closed stream, bad UTF-8)."""
    if arg == "-":
        if sys.stdin is None:  # the process was started with stdin closed
            raise ValidationError("cannot read payload from stdin: stdin is closed")
        try:
            return sys.stdin.read()
        except (OSError, ValueError) as exc:
            raise ValidationError(f"cannot read payload from stdin: {exc}") from exc
    if arg.startswith("@"):
        try:
            with open(arg[1:], "r", encoding="utf-8") as handle:
                return handle.read()
        except (OSError, ValueError) as exc:
            raise ValidationError(f"cannot read payload file: {exc}") from exc
    return arg


def _load_json(arg: str):
    try:
        return json.loads(_read_payload_text(arg))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"malformed JSON payload: {exc}") from exc


def _parameter(arg: str) -> StandardParameter:
    """The parameter payload of ``arg``."""
    from .arrangement import StandardParameter

    return StandardParameter.from_json(_load_json(arg))


def _parse_exponents(data, k: int) -> GroupElement:
    from .fermatgroup import GroupElement

    if not isinstance(data, list) or not all(type(m) is int for m in data):
        raise ValidationError("exponents must be a list of integers")
    try:
        return GroupElement(k, tuple(data))
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc


def _parse_matrix(data, k: int, size: int, budget: int) -> ExactMatrix:
    """A size x size matrix; a rational cell stays a ``Fraction``.  The
    shape and every cyclotomic cell's order are checked, and L^2 * size^2
    is charged to the budget for the lcm L of those orders (the field the
    verifier may lift to), before any cyclotomic field is built."""
    from .exactfield import CyclotomicScalar, ExactMatrix
    from .rational import rational_from_string

    if not isinstance(data, dict) or "entries" not in data:
        raise ValidationError("matrix payload needs 'entries'")
    rows = data["entries"]
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise ValidationError("'entries' must be a list of rows")
    if len(rows) != size or any(len(r) != size for r in rows):
        raise ValidationError(f"matrix must be square of size n+1 = {size}")

    def order(cell):
        if not isinstance(cell.get("coeffs"), list):
            raise ValidationError("cyclotomic entry needs a 'coeffs' list")
        m = cell.get("k", k)
        if type(m) is not int:
            raise ValidationError(f"cyclotomic entry order must be a JSON integer, got {m!r}")
        if m < 1:
            raise ValidationError("cyclotomic entry order must be positive")
        return m

    orders = [order(c) for row in rows for c in row if isinstance(c, dict)]
    needed = math.lcm(*orders) ** 2 * size**2 if orders else 0
    if needed > budget:
        raise BudgetExceeded(needed, budget)

    def entry(cell):
        if isinstance(cell, dict):
            return CyclotomicScalar.from_poly(
                cell.get("k", k), [rational_from_string(c) for c in cell["coeffs"]])
        return rational_from_string(cell)

    return ExactMatrix.from_rows([[entry(c) for c in row] for row in rows])


def _parse_degree(value) -> int:
    try:
        k = int(value)
    except ValueError as exc:
        raise ValidationError(f"degree must be an integer, got {value!r}") from exc
    if k < 2:
        raise ValidationError("degree k must be >= 2")
    return k


def _permutations_json(perms):
    return [list(p.one_line()) for p in perms]


# ---------------------------------------------------------------------------
# Verb handlers: each returns a JSON-able report dict.
# ---------------------------------------------------------------------------

def _cmd_normalize(args, budget):
    from .arrangement import Arrangement, normalize

    arrangement = Arrangement.from_json(_load_json(args.arrangement))
    transform, par = normalize(arrangement)
    return {"T": transform.to_json(), "parameter": par.to_json()}


def _cmd_orbit(args, budget):
    from .modaction import orbit_and_stabilizer
    from .rational import rational_to_string

    par = _parameter(args.parameter)
    report = orbit_and_stabilizer(par, budget=budget)
    # each element's ``to_json``, stringifying each distinct row once: the elements
    # share their row tuples, and id() names a row while the report keeps it alive
    rows = {id(row): row for element in report.elements for row in element.rows}
    rows = {key: [rational_to_string(x) for x in row] for key, row in rows.items()}
    return {
        "base": par.to_json(),
        "elements": [{"d": par.d, "n": par.n, "lambda": [rows[id(row)] for row in element.rows]}
                     for element in report.elements],
        "orbit_size": report.orbit_size,
        "stabilizer": _permutations_json(report.stabilizer),
        "stabilizer_order": report.stabilizer_order,
        "kernel_note": report.kernel_note,
    }


def _cmd_stabilizer(args, budget):
    from .modaction import kernel_note, stabilizer

    par = _parameter(args.parameter)
    elements = stabilizer(par, budget=budget)
    return {
        "stabilizer": _permutations_json(elements),
        "stabilizer_order": len(elements),
        "kernel_note": kernel_note(par.n, par.d),
    }


def _cmd_iso(args, budget):
    from .modaction import are_isomorphic

    first = _parameter(args.first)
    second = _parameter(args.second)
    k = _parse_degree(args.degree) if args.degree is not None else None
    result = are_isomorphic(first, second, k=k, budget=budget)
    return {
        "isomorphic": result.equivalent,
        "witness": list(result.witness.one_line()) if result.witness else None,
        "note": result.note,
    }


def _cmd_canon(args, budget):
    from .modaction import canonical_representative

    par = _parameter(args.parameter)
    return {"parameter": canonical_representative(par, budget=budget).to_json()}


def _cmd_equations(args, budget):
    from .fermatgroup import equations

    par = _parameter(args.parameter)
    report = equations(par, _parse_degree(args.k)).to_json()
    # equations() has refused every parameter off X_{n,d}, and membership is
    # exactly smoothness_certificate's test (the Gale dual, its docstring)
    report["smooth"] = True
    return report


def _cmd_fixed_locus(args, budget):
    from .fermatgroup import fixed_locus

    gfm_type = _parse_type(args)
    element = _parse_exponents(_load_json(args.exponents), gfm_type.k)
    if element.n != gfm_type.n:
        raise ValidationError("exponent vector must have length n+1")
    return fixed_locus(element, gfm_type).to_json()


def _cmd_free(args, budget):
    from .fermatgroup import bound_feasible, subgroup_acts_freely

    gfm_type = _parse_type(args)
    data = _load_json(args.generators)
    if not isinstance(data, list):
        raise ValidationError("generators must be a list of exponent vectors")
    gens = [_parse_exponents(g, gfm_type.k) for g in data]
    if any(g.n != gfm_type.n for g in gens):
        raise ValidationError("exponent vectors must have length n+1")
    result = subgroup_acts_freely(gens, gfm_type, budget=budget)
    bound = None
    if _is_prime(gfm_type.k, budget):
        # the subgroup of Z_k^n is a k-group, so its order is a power of k
        power, order = 0, result.subgroup_order
        while order % gfm_type.k == 0:
            order //= gfm_type.k
            power += 1
        r = gfm_type.n - power
        if r >= 1:
            bound = {
                "p": gfm_type.k,
                "r": r,
                "feasible": bound_feasible(gfm_type.k, r, gfm_type.n),
            }
    return {
        "free": result.free,
        "offending": result.offending.to_json() if result.offending else None,
        "subgroup_order": result.subgroup_order,
        "bound": bound,
    }


def _cmd_aut_order(args, budget):
    from .fermatgroup import automorphism_order

    par = _parameter(args.parameter)
    k = _parse_degree(args.k)
    return automorphism_order(par, k, budget=budget).to_json()


def _cmd_verify_matrix(args, budget):
    from .fermatgroup import is_linear_automorphism

    par = _parameter(args.parameter)
    k = _parse_degree(args.k)
    matrix = _parse_matrix(_load_json(args.matrix), k, par.n + 1, budget)
    return {"accepted": is_linear_automorphism(matrix, par, k)}


def _cmd_invariants(args, budget):
    from .invariants import invariant_report

    gfm_type = _parse_type(args)
    indices = (1, 2, 3)
    if args.pluri:
        try:
            indices = tuple(int(m) for m in args.pluri.split(","))
        except ValueError as exc:
            raise ValidationError("--pluri expects comma-separated integers") from exc
        if any(m < 1 for m in indices):
            raise ValidationError("plurigenus indices must be positive")
    return invariant_report(gfm_type, indices).to_json()


def _cmd_kummer(args, budget):
    from .constructions import kummer_parameters
    from .rational import rational_from_string, rational_to_string

    values = [rational_from_string(v) for v in args.alpha]
    par = kummer_parameters(values)
    return {
        "parameter": par.to_json(),
        "columns": [[rational_to_string(x) for x in col] for col in par.columns],
    }


def _cmd_restrict_line(args, budget):
    from .constructions import restrict_to_line
    from .rational import rational_from_string

    par = _parameter(args.parameter)
    rho_data = _load_json(args.rho)
    if not isinstance(rho_data, list) or len(rho_data) != 3:
        raise ValidationError("rho must be a list of three rationals")
    rho = tuple(rational_from_string(c) for c in rho_data)
    result = restrict_to_line(par, rho, allow_singular=args.allow_singular)
    return result.to_json()


def _cmd_conic(args, budget):
    from .constructions import tangent_conic
    from .rational import rational_from_string

    conic = tangent_conic(rational_from_string(args.a))
    report = conic.to_json()
    report["matrix"] = conic.matrix().to_json()
    report["dual_matrix"] = conic.dual_matrix().to_json()
    return report


def _cmd_conic_eta(args, budget):
    from .constructions import conic_curve_parameters
    from .rational import rational_from_string

    par = _parameter(args.parameter)
    anchors = (1, 2, 3)
    if args.anchors:
        try:
            anchors = tuple(int(i) for i in args.anchors.split(","))
        except ValueError as exc:
            raise ValidationError("--anchors expects comma-separated indices") from exc
    result = conic_curve_parameters(rational_from_string(args.a), par, anchors)
    return result.to_json()


def _cmd_classify_low_n(args, budget):
    from .fermatgroup import classify_low_n

    try:
        d, n = int(args.d), int(args.n)
    except ValueError as exc:
        raise ValidationError("d and n must be integers") from exc
    return classify_low_n(d, n).to_json()


def _parse_type(args) -> GfmType:
    from .invariants import GfmType

    # domain violations (n <= d, k < 2) are mathematical preconditions
    return GfmType(args.d, args.k, args.n)


def _is_prime(k: int, budget: int) -> bool:
    """Trial division, charging one budget step per divisor tried: a prime
    k needs isqrt(k) - 1 steps, and the budget is refused only when the next
    division would pass it."""
    for f in range(2, math.isqrt(k) + 1):
        if f - 1 > budget:
            raise BudgetExceeded(math.isqrt(k) - 1, budget)
        if k % f == 0:
            return False
    return k >= 2


_INT = {"type": int}

# verb: (handler, {argument: add_argument keywords}); the positional
# arguments in order, then the verb's own options
VERBS = {
    "normalize": (_cmd_normalize, {"arrangement": {}}),
    "orbit": (_cmd_orbit, {"parameter": {}}),
    "stabilizer": (_cmd_stabilizer, {"parameter": {}}),
    "iso": (_cmd_iso, {"first": {}, "second": {}, "--degree": {}}),
    "canon": (_cmd_canon, {"parameter": {}}),
    "equations": (_cmd_equations, {"parameter": {}, "k": {}}),
    "fixed-locus": (_cmd_fixed_locus, {"d": _INT, "k": _INT, "n": _INT, "exponents": {}}),
    "free": (_cmd_free, {"d": _INT, "k": _INT, "n": _INT, "generators": {}}),
    "aut-order": (_cmd_aut_order, {"parameter": {}, "k": {}}),
    "verify-matrix": (_cmd_verify_matrix, {"parameter": {}, "k": {}, "matrix": {}}),
    "invariants": (_cmd_invariants, {"d": _INT, "k": _INT, "n": _INT, "--pluri": {}}),
    "kummer": (_cmd_kummer, {"alpha": {"nargs": 6}}),
    "restrict-line": (_cmd_restrict_line, {"parameter": {}, "rho": {},
                                           "--allow-singular": {"action": "store_true"}}),
    "conic": (_cmd_conic, {"a": {}}),
    "conic-eta": (_cmd_conic_eta, {"a": {}, "parameter": {}, "--anchors": {}}),
    "classify-low-n": (_cmd_classify_low_n, {"d": {}, "n": {}}),
}


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are validation errors, which
    reads a token such as ``-3/2`` or ``-.5`` as a value, not an option, and
    which has no ``-h``/``--help`` (a usage dump is not a JSON report)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **{**kwargs, "add_help": False})
        # argparse's own pattern admits only integers and decimals; no
        # option here starts with a digit, so any such token is a value
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message):
        raise ValidationError(message)


def _build_parser(argv) -> argparse.ArgumentParser:
    """The parser for ``argv``: only the named verb's subparser when argv
    starts with a verb, else all of them, so that an unknown or missing
    verb is refused with the full list of choices."""
    common = _Parser()
    common.add_argument("--budget")
    common.add_argument("--pretty", action="store_true")
    parser = _Parser()
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb in [argv[0]] if argv and argv[0] in VERBS else VERBS:
        verb_parser = sub.add_parser(verb, parents=[common])
        for name, keywords in VERBS[verb][1].items():
            verb_parser.add_argument(name, **keywords)
    return parser


def _emit(report, pretty: bool) -> None:
    # report integers are exact and may pass the int-to-str digit limit
    # (CPython 3.10.7 on), which guards input parsing: lift it here only
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        if pretty:
            text = json.dumps(report, sort_keys=True, indent=2)
        else:
            text = json.dumps(report, sort_keys=True, separators=(",", ":"))
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    sys.stdout.write(text + "\n")


def _parse_budget(text) -> int:
    if text is None:
        text = os.environ.get(DEFAULT_BUDGET_ENV, str(DEFAULT_BUDGET))
    try:
        budget = int(text)
    except ValueError:
        budget = 0
    if budget < 1:
        raise ValidationError(f"budget must be a positive integer, got {text!r}")
    return budget


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    pretty = "--pretty" in argv
    try:
        args = _build_parser(argv).parse_args(argv)
        pretty = args.pretty
        report = VERBS[args.verb][0](args, _parse_budget(args.budget))
    except ValidationError as exc:
        _emit({"error": {"kind": "validation", "message": str(exc)}}, pretty)
        return EXIT_VALIDATION
    except BudgetExceeded as exc:
        _emit({"error": {"kind": "budget", "message": str(exc)}}, pretty)
        return EXIT_BUDGET
    except ValueError as exc:
        _emit({"error": {"kind": "precondition", "message": str(exc)}}, pretty)
        return EXIT_PRECONDITION
    _emit(report, pretty)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
