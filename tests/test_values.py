"""Value semantics of the package's immutable types.

Each is a ``__slots__`` class on ``errors.Frozen``: fields cannot be
assigned or deleted, two values of one class are equal and hash alike when
their fields are, a value never equals one of another class, and the repr
is ``Name(field=value, ...)``.  Each constructor refuses what it refused
when the types were frozen dataclasses.
"""

import copy
import pickle
import types
from fractions import Fraction

import pytest

from gfermat import arrangement, constructions, exactfield, fermatgroup, invariants, modaction
from gfermat.arrangement import Arrangement, Hyperplane, StandardParameter
from gfermat.constructions import Conic, ConicCurveResult, LineRestriction
from gfermat.errors import Frozen
from gfermat.exactfield import CyclotomicScalar, ExactMatrix
from gfermat.fermatgroup import (
    AutomorphismOrder,
    EquationSystem,
    FixedComponent,
    FixedLocusReport,
    FreeActionResult,
    GroupElement,
    LowNClassification,
)
from gfermat.invariants import GfmType, InvariantReport
from gfermat.modaction import IsomorphismResult, OrbitReport, Permutation

PAR = StandardParameter(2, 4, ((Fraction(2), Fraction(3)),))
ETA = StandardParameter(1, 4, ((Fraction(2),), (Fraction(3),)))
ELEMENT = GroupElement(3, (1, 1, 2, 0, 0))
TYPE = GfmType(2, 3, 4)

# constructor arguments of one value per class
SAMPLES = {
    Hyperplane: ((Fraction(1), Fraction(2), Fraction(3)),),
    Arrangement: (1, ((1, 0), (0, 1), (1, 1))),
    StandardParameter: (2, 4, ((Fraction(2), Fraction(3)),)),
    Conic: ((4, 9, 1, 12, -4, 6),),
    LineRestriction: (ETA, ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))), False),
    ConicCurveResult: (ETA, ((Fraction(1), Fraction(0), Fraction(0)),), (1, 2, 3)),
    CyclotomicScalar: (5, (1, 2, 0, 0), 3),
    ExactMatrix: (2, 2, (1, 2, 3, 4)),
    GfmType: (2, 3, 4),
    GroupElement: (3, (1, 1, 2, 0, 0)),
    EquationSystem: (2, 4, 3, PAR.rows, ExactMatrix(1, 1, (1,))),
    FixedComponent: (0, (1, 2), 0, 0, 1, 3),
    FixedLocusReport: (ELEMENT, TYPE, ()),
    FreeActionResult: (False, ELEMENT, 9),
    AutomorphismOrder: (24, 2, 2, 1, 12, "Aut"),
    LowNClassification: (3, 3, "projective-space", "M = P^3"),
    InvariantReport: (TYPE, 2, 2, 5, {1: 5}, "general-type", "note"),
    Permutation: ((1, 0, 2),),
    OrbitReport: (PAR, (PAR,), (Permutation((0, 1, 2, 3, 4)),), None),
    IsomorphismResult: (True, Permutation((1, 0, 2)), None),
}

CLASSES = pytest.mark.parametrize("cls", list(SAMPLES), ids=lambda cls: cls.__name__)


def sample(cls):
    return cls(*SAMPLES[cls])


def fields(value):
    return [(name, getattr(value, name)) for name in type(value).__slots__]


def test_every_value_type_is_covered():
    """The twenty value types are all the package's ``Frozen`` classes."""
    modules = (arrangement, constructions, exactfield, fermatgroup, invariants, modaction)
    defined = {obj for module in modules for obj in vars(module).values()
               if isinstance(obj, type) and issubclass(obj, Frozen) and obj is not Frozen}
    assert defined == set(SAMPLES)
    assert len(SAMPLES) == 20


@CLASSES
def test_fields_cannot_be_assigned_or_deleted(cls):
    value = sample(cls)
    for name, old in fields(value):
        with pytest.raises(AttributeError):
            setattr(value, name, old)
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert getattr(value, name) is old
    with pytest.raises(AttributeError):
        value.no_such_field = 1


@CLASSES
def test_equal_fields_compare_and_hash_alike(cls):
    first, second = sample(cls), sample(cls)
    assert first is not second
    assert first == second and not first != second
    if cls is InvariantReport:  # its plurigenera are a dict, unhashable as before
        with pytest.raises(TypeError):
            hash(first)
    else:
        assert hash(first) == hash(second)
        assert len({first, second}) == 1


@CLASSES
def test_another_class_with_the_same_fields_is_never_equal(cls):
    value = sample(cls)
    twin = object.__new__(type("Twin", (Frozen,), {"__slots__": cls.__slots__}))
    for name, field in fields(value):
        object.__setattr__(twin, name, field)
    assert fields(twin) == fields(value)
    assert value != twin and twin != value
    assert value != types.SimpleNamespace(**dict(fields(value)))


@CLASSES
def test_copy_and_pickle_rebuild_an_equal_value(cls):
    value = sample(cls)
    for clone in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(clone) is cls and clone == value


@CLASSES
def test_constructors_take_one_value_per_field(cls):
    with pytest.raises(TypeError):
        cls()
    with pytest.raises(TypeError):
        cls(*SAMPLES[cls], None)


def test_values_with_different_fields_differ():
    assert GfmType(2, 3, 4) != GfmType(2, 3, 5)
    assert Permutation((1, 0, 2)) != Permutation((0, 1, 2))
    assert ExactMatrix(2, 2, (1, 2, 3, 4)) != ExactMatrix(2, 2, (1, 2, 3, 5))
    assert ExactMatrix(1, 4, (1, 2, 3, 4)) != ExactMatrix(4, 1, (1, 2, 3, 4))


@CLASSES
def test_repr_names_every_field(cls):
    value = sample(cls)
    inner = ", ".join(f"{name}={field!r}" for name, field in fields(value))
    assert repr(value) == f"{cls.__name__}({inner})"


def test_repr_literal():
    assert repr(GfmType(2, 4, 3)) == "GfmType(d=2, k=4, n=3)"
    assert repr(Permutation((1, 0))) == "Permutation(images=(1, 0))"


def test_constructors_keep_their_signatures():
    """Positional order and defaults are those of the former dataclasses."""
    assert CyclotomicScalar(7, (1, 0, 0, 0, 0, 0)).den == 1
    assert CyclotomicScalar(order=7, nums=(1, 0, 0, 0, 0, 0), den=1) == 1
    assert GfmType(n=4, k=3, d=2) == TYPE
    assert StandardParameter(d=2, n=4, rows=((2, 3),)) == PAR


def test_constructors_normalize_as_before():
    assert Hyperplane((2, 4, 6)).dual_point == (1, 2, 3)
    assert type(Hyperplane((2, 4, 6)).dual_point[0]) is Fraction
    assert GroupElement(3, (2, 2, 0, 1, 1)) == ELEMENT
    assert Permutation(("1", 0, 2.0)).images == (1, 0, 2)
    assert all(type(x) is Fraction for x in StandardParameter(2, 4, ((2, 3),)).rows[0])
    assert Arrangement(1, ((1, 0), (0, 1), (1, 1))).hyperplanes[2] == Hyperplane((1, 1))
    assert Conic((4, 9, 1, 12, -4, 6)).coefficients[0] == Fraction(4)


def test_trusted_parameter_is_an_ordinary_value():
    trusted = StandardParameter._trusted(2, 4, PAR.rows)
    assert trusted == PAR and hash(trusted) == hash(PAR)
    with pytest.raises(AttributeError):
        trusted.rows = ()


def test_cyclotomic_scalar_keeps_its_own_equality():
    """A rational cyclotomic value equals, and hashes as, its Fraction."""
    half = CyclotomicScalar(5, (1, 0, 0, 0), 2)
    assert half == Fraction(1, 2) and hash(half) == hash(Fraction(1, 2))
    assert CyclotomicScalar(5, (1, 0, 0, 0)) == 1
    assert CyclotomicScalar(5, (1, 0, 0, 0)) != CyclotomicScalar(7, (1, 0, 0, 0, 0, 0))


@pytest.mark.parametrize("cls,args,message", [
    (Hyperplane, ((0, 0, 0),), "zero vector"),
    (Arrangement, (0, ((1,), (1,))), "ambient dimension"),
    (Arrangement, (1, ((1, 0), (0, 1), (1, 1, 1))), "length d\\+1"),
    (Arrangement, (2, ((1, 0, 0), (0, 1, 0), (0, 0, 1))), "at least d\\+2"),
    (StandardParameter, (0, 2, ()), "d >= 1"),
    (StandardParameter, (2, 2, ()), "n >= d\\+1"),
    (StandardParameter, (2, 4, ()), "n-d-1 rows"),
    (StandardParameter, (2, 4, ((1,),)), "d entries"),
    (Conic, ((1, 1, 1, 0, 0),), "six coefficients"),
    (Conic, ((1, 0, 0, 0, 0, 0),), "singular"),
    (ExactMatrix, (2, 2, (1, 2, 3)), "entry count"),
    (GfmType, (0, 3, 4), "dimension d"),
    (GfmType, (2, 1, 4), "branch order"),
    (GfmType, (2, 3, 2), "n >= d\\+1"),
    (GroupElement, (1, (0, 0)), "modulus"),
    (GroupElement, (3, (1,)), "two exponents"),
    (Permutation, ((0, 0, 1),), "bijection"),
    (Permutation, ((1, 2),), "bijection"),
])
def test_constructors_refuse_as_before(cls, args, message):
    with pytest.raises(ValueError, match=message):
        cls(*args)
