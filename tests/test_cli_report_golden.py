"""Golden test for the CLI's reports: for every argv of ``report_corpus()``
the exit code and stdout are byte-identical to the ones recorded in
``cli_report_golden.json``.

The corpus is seeded, so it is the same list on every run.  It covers all
16 verbs and the exit codes 0, 2, 3 and 4.  ``normalize``, ``orbit``,
``canon`` and ``stabilizer`` run at every (d, n) with d <= 3 and n <= 6;
each ``normalize`` payload is a parameter's arrangement moved by a random
rational matrix, with every dual point rescaled by a random fraction, so
that T and the table both come out of the elimination.  It also holds
tables with nontrivial stabilizers, the (n, d) = (3, 1) Klein kernel, the
two exceptional triples (the iso note and ``category: "Lin"``), and
rational and cyclotomic ``verify-matrix`` cells, accepted and rejected.

To record the file again (only when a report is meant to change):
``PYTHONPATH=src python -m tests.test_cli_report_golden``.
"""

import json
import os
import random
import sys
from fractions import Fraction

from gfermat.arrangement import StandardParameter, is_standard_parameter
from tests.test_cli_golden import run

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_report_golden.json")

GRID = [(d, n) for d in (1, 2, 3) for n in range(d + 1, 7)]
# tables with nontrivial stabilizers (orders 2, 12, 12, 3 and 2)
TIED = [(1, 4, [["-3"], ["-1"]]), (1, 5, [["1/3"], ["1/2"], ["2/3"]]),
        (2, 5, [["-3", "3"], ["3", "3/2"]]),
        (2, 6, [["-2/3", "2/3"], ["-1", "-3/2"], ["3/2", "-1"]]),
        (3, 6, [["2", "-1", "-2"], ["2/3", "1/3", "-4/3"]])]


def _text(x: Fraction) -> str:
    return str(Fraction(x))


def _fraction(rng, bound=9, nonzero=False):
    while True:
        x = Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
        if x or not nonzero:
            return x


def _table(rng, d, n):
    """Rows of a random point of X_{n,d} (rejection sampling)."""
    while True:
        rows = tuple(tuple(_fraction(rng) for _ in range(d)) for _ in range(n - d - 1))
        if is_standard_parameter(StandardParameter(d, n, rows)):
            return rows


def _par(d, n, rows):
    return json.dumps({"d": d, "n": n, "lambda": [[_text(x) for x in row] for row in rows]})


def _det(m):
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** j * m[0][j] * _det([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)))


def _scrambled(rng, d, rows):
    """The arrangement payload of the table ``rows``, its dual points moved
    by a random invertible rational matrix and each rescaled."""
    duals = [[int(i == j) for i in range(d + 1)] for j in range(d + 1)]
    duals += [[1] * (d + 1)] + [list(row) + [1] for row in rows]
    while True:
        g = [[_fraction(rng, 5) for _ in range(d + 1)] for _ in range(d + 1)]
        if _det(g):
            break
    points = []
    for q in duals:
        scale = _fraction(rng, 7, nonzero=True)
        points.append([_text(scale * sum(x * y for x, y in zip(row, q))) for row in g])
    return json.dumps({"d": d, "points": points})


def _matrix(cells):
    return json.dumps({"entries": cells})


def _zeta(power, k=None):
    """The cell zeta^power, for a primitive k-th root (k: the verb's own)."""
    cell = {"coeffs": ["0"] * power + ["1"]}
    return cell if k is None else {**cell, "k": k}


def _diagonal(cells):
    size = len(cells)
    return _matrix([[cells[r] if r == c else "0" for c in range(size)] for r in range(size)])


def report_corpus():
    """Every argv of the golden file, in order."""
    rng = random.Random(2026)
    argvs = []
    for d, n in GRID:
        rows = _table(rng, d, n)
        par = _par(d, n, rows)
        argvs += [["normalize", _scrambled(rng, d, rows)], ["normalize", _scrambled(rng, d, rows)],
                  ["orbit", par], ["canon", par], ["stabilizer", par]]
    for d, n, rows in TIED:
        par = json.dumps({"d": d, "n": n, "lambda": rows})
        argvs += [["orbit", par], ["canon", par], ["stabilizer", par], ["aut-order", par, "3"]]
    klein = _par(1, 3, ((Fraction(2),),))
    argvs += [["orbit", klein], ["stabilizer", klein], ["aut-order", klein, "4"],
              ["orbit", _par(1, 3, ((Fraction(-5, 7),),))], ["canon", klein]]
    # iso: a table against a moved copy (the frame's first d hyperplanes
    # reversed, which reverses each row, and the other ones reversed),
    # against another table, and the two exceptional triples with and
    # without their degree
    for d, n in ((1, 4), (2, 5), (3, 6)):
        rows = _table(rng, d, n)
        moved = tuple(row[::-1] for row in rows[::-1])
        argvs += [["iso", _par(d, n, rows), _par(d, n, moved)],
                  ["iso", _par(d, n, rows), _par(d, n, _table(rng, d, n))]]
    k3 = _par(2, 5, _table(rng, 2, 5))
    fermat23 = _par(2, 3, ())
    argvs += [["iso", k3, k3, "--degree", "2"], ["iso", k3, k3, "--degree", "3"],
              ["iso", fermat23, fermat23, "--degree", "4"], ["iso", k3, fermat23],
              ["aut-order", k3, "2"], ["aut-order", k3, "3"], ["aut-order", fermat23, "4"],
              ["aut-order", fermat23, "5"], ["aut-order", _par(1, 3, ((Fraction(3),),)), "2"],
              ["aut-order", _par(1, 4, _table(rng, 1, 4)), "5"]]
    for d, n, k in ((1, 3, 2), (1, 4, 3), (2, 4, 4), (2, 5, 2), (3, 6, 3), (2, 3, 5)):
        argvs.append(["equations", _par(d, n, _table(rng, d, n)), str(k)])
    # verify-matrix: rational and cyclotomic cells, accepted and rejected
    par24 = _par(2, 4, _table(rng, 2, 4))
    argvs += [
        ["verify-matrix", fermat23, "2", _diagonal(["1", "-1", "1", "-1"])],
        ["verify-matrix", fermat23, "2", _diagonal(["2", "1", "1", "1"])],
        ["verify-matrix", fermat23, "3", _matrix([["0", "1", "0", "0"], ["1", "0", "0", "0"],
                                                  ["0", "0", "0", "-1"], ["0", "0", "1", "0"]])],
        ["verify-matrix", par24, "3", _diagonal(["1"] * 5)],
        ["verify-matrix", par24, "3", _diagonal([_zeta(1), _zeta(2), "1", _zeta(1), "1"])],
        ["verify-matrix", par24, "3", _diagonal([_zeta(1, 6), "1", "1", "1", "1"])],
        ["verify-matrix", fermat23, "4", _diagonal([_zeta(1), _zeta(3), "1", _zeta(2)])],
        ["verify-matrix", fermat23, "4", _matrix([["0", _zeta(1), "0", "0"], [_zeta(3), "0", "0", "0"],
                                                  ["0", "0", "1", "0"], ["0", "0", "0", "1"]])],
        ["verify-matrix", fermat23, "3", _matrix([["1", "1", "0", "0"], ["0", "1", "0", "0"],
                                                  ["0", "0", _zeta(1), "0"], ["0", "0", "0", "1"]])],
        ["verify-matrix", fermat23, "3", _matrix([["1", "1", "0", "0"], ["1", "1", "0", "0"],
                                                  ["0", "0", "1", "0"], ["0", "0", "0", "1"]])],
        ["verify-matrix", fermat23, "2", _diagonal([_zeta(1, 100000), "1", "1", "1"])],
        ["verify-matrix", par24, "3", _diagonal(["1"] * 4)],
    ]
    argvs += [["fixed-locus", "2", "3", "4", "[0,1,2,0,1]"], ["fixed-locus", "1", "5", "3", "[1,1,1,2]"],
              ["fixed-locus", "2", "3", "4", "[0,0,0,0,0]"], ["fixed-locus", "2", "3", "4", "[1,2]"],
              ["free", "2", "3", "4", "[[1,1,0,0,0]]"], ["free", "1", "2", "3", "[[1,1,0,0]]"],
              ["free", "2", "3", "5", "[[1,2,0,0,0,0],[0,0,1,2,0,0]]"],
              ["free", "2", "3", "5", "[[1,2,0,0,0,0],[0,0,1,2,0,0]]", "--budget", "2"],
              ["free", "2", "4", "4", "[[1,0,0,0,3]]"]]
    argvs += [["invariants", "2", "4", "3"], ["invariants", "1", "3", "4", "--pluri", "1,2,5"],
              ["invariants", "3", "2", "6"], ["invariants", "2", "3", "2"],
              ["kummer", "2", "3", "5", "7", "11", "13"], ["kummer", "1/2", "-3", "5/4", "7", "0", "-2/3"],
              ["kummer", "1", "1", "2", "3", "4", "5"]]
    for rho in (("1", "2", "7"), ("3/2", "-1", "5")):
        argvs.append(["restrict-line", par24, json.dumps(rho)])
    argvs += [["restrict-line", par24, '["0","0","1"]'],
              ["restrict-line", par24, '["0","0","1"]', "--allow-singular"],
              ["conic", "3"], ["conic", "-5/4"], ["conic", "0"], ["conic", "1"]]
    # row 5 tangent to the conic of a = 3, and of a = 5/2
    tangent3 = _par(2, 4, ((Fraction(-4, 5), Fraction(-2)),))
    tangent52 = _par(2, 4, ((Fraction(-4, 3), Fraction(-5, 2)),))
    argvs += [["conic-eta", "3", tangent3], ["conic-eta", "5/2", tangent52, "--anchors", "1,3,4"],
              ["conic-eta", "5/2", tangent52, "--anchors", "2,4,5"], ["conic-eta", "3", par24],
              ["classify-low-n", "3", "2"], ["classify-low-n", "4", "4"],
              ["classify-low-n", "2", "5"]]
    # refusals: validation (2), precondition (3) and budget (4)
    off = _par(1, 4, ((Fraction(2),), (Fraction(2),)))
    argvs += [["normalize", '{"d":1,"points":[["1","0"],["0","1"],["1","1"],["2","2"]]}'],
              ["normalize", '{"d":2,"points":[["1","0","0"],["0","1","0"],["0","0","1"]]}'],
              ["normalize", '{"d":1,"points":[["1","0"],["0","1"],["1","x"]]}'],
              ["orbit", off], ["canon", off], ["stabilizer", off], ["iso", off, off],
              ["orbit", _par(2, 6, _table(rng, 2, 6)), "--budget", "100"],
              ["canon", _par(3, 6, _table(rng, 3, 6)), "--budget", "5039"],
              ["stabilizer", '{"d":1,"n":3,"lambda":[[2.5]]}'],
              ["aut-order", klein, "1"], ["equations", off, "3"]]
    return [list(argv) for argv in dict.fromkeys(map(tuple, argvs))]


def test_reports_match_golden(monkeypatch):
    monkeypatch.delenv("GFERMAT_BUDGET", raising=False)
    with open(GOLDEN, encoding="utf-8") as handle:
        golden = json.load(handle)
    assert [record["argv"] for record in golden] == report_corpus()
    for record in golden:
        assert run(record["argv"]) == (record["code"], record["stdout"]), record["argv"]


def test_corpus_covers_every_verb_and_exit_code():
    with open(GOLDEN, encoding="utf-8") as handle:
        golden = json.load(handle)
    from gfermat.cli import VERBS

    assert {record["argv"][0] for record in golden} == set(VERBS)
    assert {record["code"] for record in golden} == {0, 2, 3, 4}


if __name__ == "__main__":
    os.environ.pop("GFERMAT_BUDGET", None)
    records = []
    for argv in report_corpus():
        code, stdout = run(argv)
        records.append({"argv": argv, "code": code, "stdout": stdout})
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        handle.write("[\n" + ",\n".join(map(json.dumps, records)) + "\n]\n")
    print(f"recorded {len(records)} argvs", file=sys.stderr)
