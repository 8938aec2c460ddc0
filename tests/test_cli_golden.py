"""Golden test for the CLI's usage errors: for every argv of
``usage_corpus()`` the exit code and stdout are byte-identical to the ones
recorded in ``cli_usage_golden.json``.

The corpus covers, for each verb, no arguments, one argument too few and one
too many, a non-integer type argument, an unknown flag, ``--budget`` with no
value, ``-h``/``--help``, abbreviated and ambiguous flags and a negative
rational such as ``-3/2`` in every slot; and the empty argv, an unknown verb
and a leading ``--pretty``.  Most texts are argparse's own messages, so the
file pins the parser, not only the handlers.

To record the file again (only when a usage text is meant to change):
``PYTHONPATH=src python -m tests.test_cli_golden``.
"""

import contextlib
import io
import json
import os
import sys

from gfermat.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_usage_golden.json")

PAR_13 = '{"d":1,"n":3,"lambda":[["2"]]}'
PAR_24 = '{"d":2,"n":4,"lambda":[["2","3"]]}'
FERMAT_23 = '{"d":2,"n":3,"lambda":[]}'
IDENTITY_4 = json.dumps({"entries": [[str(int(r == c)) for c in range(4)] for r in range(4)]})

# one cheap, well-formed argument list per verb, and the slots holding a
# d, k or n (the arguments that must be integers)
FULL = {
    "normalize": (['{"d":1,"points":[["1","0"],["0","1"],["1","1"],["2","1"]]}'], ()),
    "orbit": ([PAR_13], ()),
    "stabilizer": ([PAR_13], ()),
    "iso": ([PAR_13, PAR_13], ()),
    "canon": ([PAR_13], ()),
    "equations": ([PAR_13, "3"], (1,)),
    "fixed-locus": (["2", "3", "4", "[0,1,2,0,1]"], (0, 1, 2)),
    "free": (["2", "3", "4", "[[1,1,0,0,0]]"], (0, 1, 2)),
    "aut-order": ([PAR_13, "3"], (1,)),
    "verify-matrix": ([FERMAT_23, "2", IDENTITY_4], (1,)),
    "invariants": (["2", "3", "4"], (0, 1, 2)),
    "kummer": (["2", "3", "5", "7", "11", "13"], ()),
    "restrict-line": ([PAR_24, '["1","2","7"]'], ()),
    "conic": (["3"], ()),
    "conic-eta": (["3", PAR_24], ()),
    "classify-low-n": (["3", "2"], (0, 1)),
}
# each verb's own options, with a well-formed value (None: a flag)
OPTIONS = {"iso": {"--degree": "3"}, "invariants": {"--pluri": "1,2"},
           "restrict-line": {"--allow-singular": None}, "conic-eta": {"--anchors": "1,2,3"}}


def _verb_argvs(verb):
    full, int_slots = FULL[verb]
    yield [verb]
    yield [verb, *full[:-1]]
    yield [verb, *full, "extra"]
    yield [verb, *full, "-3/2"]
    yield [verb, "--pretty", *full[:-1]]
    for slot in int_slots:
        for bad in ("x", "1.5", "-3/2"):
            yield [verb, *full[:slot], bad, *full[slot + 1:]]
    for slot in range(len(full)):
        yield [verb, *full[:slot], "-3/2", *full[slot + 1:]]
    for tail in (["--nope"], ["--nope", "1"], ["--budget"], ["--budget", "x"],
                 ["--budget", "-3/2"], ["--budget=0"], ["--pretty=1"], ["-h"], ["--help"],
                 ["-"], ["--"], ["--", "extra"], ["--b"], ["--p"], ["--d"], ["--a"],
                 ["--bud", "x"], ["--degree", "3"], ["--pluri", "1"], ["--anchors", "1,2,3"],
                 ["--allow-singular"]):
        yield [verb, *full, *tail]
    yield [verb, "-h"]
    yield [verb, "--help", *full]
    yield [verb, "--budget", *full]
    for option, value in OPTIONS.get(verb, {}).items():
        if value is None:
            yield [verb, *full, f"{option}=x"]
            yield [verb, *full, option, option]
        else:
            yield [verb, *full, option]
            yield [verb, *full, option, "x"]
            yield [verb, *full, f"{option}=-3/2"]
            yield [verb, option, value]


def usage_corpus():
    """Every argv of the golden file, in order."""
    argvs = [[], ["nope"], ["-h"], ["--help"], ["--pretty"], ["--pretty", "orbit", PAR_13],
             ["--budget", "5", "orbit", PAR_13], ["-3/2"], [""], ["orbit=x"], ["--"],
             ["--", "orbit", PAR_13], ["Orbit", PAR_13], ["orb", PAR_13], ["--pretty", "nope"]]
    for verb in FULL:
        argvs.extend(_verb_argvs(verb))
    return [list(argv) for argv in dict.fromkeys(map(tuple, argvs))]


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def test_usage_errors_match_golden(monkeypatch):
    monkeypatch.delenv("GFERMAT_BUDGET", raising=False)
    with open(GOLDEN, encoding="utf-8") as handle:
        golden = json.load(handle)
    assert [record["argv"] for record in golden] == usage_corpus()
    for record in golden:
        assert run(record["argv"]) == (record["code"], record["stdout"]), record["argv"]


if __name__ == "__main__":
    os.environ.pop("GFERMAT_BUDGET", None)
    records = []
    for argv in usage_corpus():
        code, stdout = run(argv)
        records.append({"argv": argv, "code": code, "stdout": stdout})
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        handle.write("[\n" + ",\n".join(map(json.dumps, records)) + "\n]\n")
    print(f"recorded {len(records)} argvs", file=sys.stderr)
