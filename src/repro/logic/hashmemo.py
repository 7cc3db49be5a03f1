"""Memoised structural hashes for the immutable syntax dataclasses.

Terms, formulas, linear expressions and canonical theory atoms are hashed
on every dict and set lookup of the solver caches, and the ``__hash__``
that ``@dataclass(frozen=True)`` generates re-hashes the whole subtree
(``Fraction`` coefficients, ``SqlType`` enums, strings) each time.
:func:`memo_hash` keeps that generated function but stores its value in a
slot on first use.  The value is the same, so every set and dict order --
and everything derived from one -- stays exactly as it was.

Usage::

    @memo_hash
    @dataclass(frozen=True, slots=True)
    class Var(Term):
        name: str
        vtype: SqlType
        _hash: int | None = hash_slot()

The memo never crosses a process boundary: ``__reduce__`` rebuilds an
object from its init fields only, because string hashes are salted per
process and a carried-over memo would be wrong on the other side.
"""

from __future__ import annotations

from dataclasses import field, fields


def hash_slot():
    """The memo field: not an init argument, and outside ``__eq__``,
    ``__repr__`` and the hashed tuple itself."""
    return field(default=None, init=False, repr=False, compare=False)


def memo_hash(cls):
    """Wrap the generated ``__hash__`` of a frozen slotted dataclass that
    declares a ``_hash`` :func:`hash_slot` field."""
    generated = cls.__hash__
    names = tuple(f.name for f in fields(cls) if f.init)

    def __hash__(self):
        value = self._hash
        if value is None:
            value = generated(self)
            object.__setattr__(self, "_hash", value)
        return value

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in names)

    cls.__hash__ = __hash__
    cls.__reduce__ = __reduce__
    return cls
