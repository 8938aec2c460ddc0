"""Exception types, the enumeration budget and the immutable value base
shared across the package."""

from operator import attrgetter

DEFAULT_BUDGET = 10**6


class Frozen:
    """Base of the package's immutable values.

    A subclass names its fields in ``__slots__``.  ``Frozen(*values)`` takes
    exactly one value per field and stores each through its slot setter, in
    slot order; the setters in ``_setters`` write past ``__setattr__``
    without the name lookup of ``object.__setattr__``.  A class that checks
    or normalizes its arguments does so in its own ``__init__`` and ends
    with ``super().__init__(...)``.  ``CyclotomicScalar``, ``FixedComponent``,
    ``StandardParameter._trusted`` and ``_trusted_all`` call their setters
    one by one instead, since they are built on hot paths, where this loop
    measured 25-50% slower; ``fixed_locus`` sets a report's slots without
    any ``__init__`` frame.  Assigning or deleting a field raises
    ``AttributeError``; two values are equal, and hash alike, when they are
    of the same class and their fields are equal; the repr is
    ``Name(field=value, ...)``.  ``copy`` and ``pickle`` rebuild a value
    through its constructor.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls._setters = tuple(vars(cls)[name].__set__ for name in cls.__slots__)
        get = attrgetter(*cls.__slots__)
        cls._fields = staticmethod(get if len(cls.__slots__) > 1 else lambda v: (get(v),))

    def __init__(self, *values):
        if len(values) != len(self._setters):
            raise TypeError(f"{type(self).__qualname__}() takes {len(self._setters)} "
                            f"arguments ({len(values)} given)")
        for set_field, value in zip(self._setters, values):
            set_field(self, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields(self) == other._fields(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._fields(self))

    def __reduce__(self):
        return type(self), self._fields(self)

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}"
                           for name, value in zip(self.__slots__, self._fields(self)))
        return f"{type(self).__qualname__}({fields})"


class BudgetExceeded(RuntimeError):
    """An exhaustive enumeration would exceed the configured budget."""

    def __init__(self, needed, budget):
        super().__init__(f"enumeration needs {needed} steps, budget is {budget}")
        self.needed = needed
        self.budget = budget


class ValidationError(ValueError):
    """Malformed payload (bad JSON, bad schema, unparseable scalar)."""


class NotInGeneralPosition(ValueError):
    """A hyperplane collection violates the general-position requirement."""


class TangencyError(ValueError):
    """A line that must be tangent to the reference conic is not.

    Carries the 1-based index of the offending line.
    """

    def __init__(self, index, message=None):
        super().__init__(message or f"line {index} is not tangent to the conic")
        self.index = index
