"""The package resolves its public names on first access, and a CLI verb
loads only the submodules it uses."""

import functools
import json
import os
import subprocess
import sys

import pytest

import gfermat

EXPORTS = [
    "Arrangement", "BudgetExceeded", "Conic", "CyclotomicScalar", "EquationSystem",
    "ExactMatrix", "GfmType", "GroupElement", "Hyperplane",
    "NotInGeneralPosition", "Permutation", "StandardParameter",
    "TangencyError", "act", "act_sigma1", "act_sigma2", "are_isomorphic",
    "automorphism_order", "bound_feasible", "canonical_degree", "canonical_representative",
    "classify", "classify_low_n", "conic_curve_parameters", "cyclotomic_polynomial",
    "equations", "fixed_locus", "h0_twist", "hilbert_series_coefficient",
    "invariant_report", "is_general_position", "is_linear_automorphism",
    "is_standard_parameter", "kernel_of_R", "kodaira_dimension", "kummer_parameters",
    "normalize", "orbit_and_stabilizer", "plurigenus", "projective_normalize",
    "restrict_to_line", "smoothness_certificate", "stabilizer", "subgroup_acts_freely",
    "tangent_conic",
]

SRC = os.path.dirname(os.path.dirname(os.path.abspath(gfermat.__file__)))


def test_every_export_resolves_and_is_listed():
    assert sorted(EXPORTS) == gfermat.__all__
    listed = dir(gfermat)
    for name in EXPORTS:
        value = getattr(gfermat, name)
        assert name in listed and name in gfermat.__all__
        module = sys.modules[f"gfermat.{gfermat._SUBMODULE[name]}"]
        assert value is getattr(module, name)


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError):
        gfermat.no_such_name


HARNESS = (
    "import contextlib, io, json, sys\n"
    "{load}"
    "print(json.dumps(sorted(sys.modules)))\n"
)


def _modules(load):
    """Every module in sys.modules after the harness ran ``load`` in a
    fresh interpreter."""
    path = os.pathsep.join([SRC, *filter(None, [os.environ.get("PYTHONPATH")])])
    done = subprocess.run([sys.executable, "-c", HARNESS.format(load=load)],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=60, check=True)
    return set(json.loads(done.stdout))


@functools.lru_cache(maxsize=None)
def _baseline():
    return _modules("")


def loaded_after(*argv):
    """The modules that ``import gfermat.cli`` and, given an argv, one
    ``main`` call add in a fresh interpreter, against the same harness run
    without gfermat."""
    load = (
        "from gfermat.cli import main\n"
        f"argv = {list(argv)!r}\n"
        "if argv:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv) == 0\n"
    )
    return _modules(load) - _baseline()


PAR_24 = '{"d":2,"n":4,"lambda":[["2","3"]]}'
# a shear, rejected by its determinant mod a split prime
SHEAR_5 = json.dumps({"entries": [[str(int(r == c or (r, c) == (0, 1))) for c in range(5)]
                                  for r in range(5)]})

# the verbs that build an exact matrix or a cyclotomic scalar; no other
# verb loads exactfield
FIELD_VERBS = {"normalize", "equations", "verify-matrix", "kummer", "restrict-line", "conic",
               "conic-eta"}


@pytest.mark.parametrize("argv,unused", [
    ((), {"arrangement", "constructions", "exactfield", "fermatgroup", "invariants",
          "modaction", "rational"}),
    (("kummer", "0", "1", "2", "3", "4", "5"), {"fermatgroup", "invariants", "modaction"}),
    (("invariants", "2", "4", "3"), {"arrangement", "constructions", "fermatgroup", "modaction",
                                     "rational"}),
    (("equations", PAR_24, "4"), {"constructions", "modaction"}),
    (("orbit", PAR_24), {"constructions", "fermatgroup", "invariants"}),
    (("stabilizer", PAR_24), {"constructions", "fermatgroup", "invariants"}),
    (("iso", PAR_24, PAR_24), {"constructions", "fermatgroup", "invariants"}),
    (("canon", PAR_24), {"constructions", "fermatgroup", "invariants"}),
    (("aut-order", PAR_24, "3"), {"constructions"}),
    (("fixed-locus", "2", "3", "4", "[1,1,2,0,0]"),
     {"arrangement", "constructions", "modaction", "rational"}),
    (("free", "2", "3", "4", "[[1,1,2,0,0]]"),
     {"arrangement", "constructions", "modaction", "rational"}),
    (("classify-low-n", "3", "3"), {"arrangement", "constructions", "modaction", "rational"}),
    (("verify-matrix", PAR_24, "3", SHEAR_5), {"constructions", "modaction"}),
    (("normalize", '{"d":1,"points":[["1","0"],["0","1"],["1","1"],["2","3"]]}'),
     {"constructions", "fermatgroup", "invariants", "modaction"}),
])
def test_verbs_load_only_what_they_use(argv, unused):
    loaded = loaded_after(*argv)
    assert "gfermat.cli" in loaded
    assert loaded.isdisjoint(f"gfermat.{name}" for name in unused), loaded
    assert ("gfermat.exactfield" in loaded) == (bool(argv) and argv[0] in FIELD_VERBS), loaded
    # the split-prime residues serve the automorphism verifier alone
    assert ("gfermat.modp" in loaded) == (argv[:1] == ("verify-matrix",)), loaded
    # the value types are __slots__ classes: no verb pays for dataclasses
    assert loaded.isdisjoint({"dataclasses", "inspect"}), loaded


def test_invariants_skip_the_rationals():
    """``invariants`` reads a type triple only: no rational arithmetic."""
    assert "fractions" not in loaded_after("invariants", "2", "4", "3")


@pytest.mark.parametrize("argv", [
    ("fixed-locus", "2", "3", "4", "[1,1,2,0,0]"),
    ("free", "2", "3", "4", "[[1,1,2,0,0]]"),
    ("classify-low-n", "3", "3"),
])
def test_deck_group_verbs_skip_the_rationals(argv):
    """The deck-group verbs read integer exponents only: no rational
    arithmetic."""
    assert "fractions" not in loaded_after(*argv)
