"""Identifier types: transaction ids, object ids, and log sequence numbers.

The paper manipulates three kinds of identifiers:

* ``tid`` — a transaction identifier, returned by ``initiate`` and consumed
  by every other primitive.  The *null tid* signals failure.
* object ids — EOS object identifiers naming persistent objects.
* LSNs — log sequence numbers ordering write-ahead-log records.

All three are ``int`` subclasses: hashing, equality and ordering run in
C, an id packs into a log or page record as the integer it is, and only
``repr`` is their own, so traces and test failures say which kind of
number they print.  Being ints, ids of different kinds compare equal
when their numbers do — ``Tid(3) == ObjectId(3)`` — so a table must
never mix kinds in one key space.
"""

from __future__ import annotations

import itertools

# The number as a plain ``int``, for code written when ids were records
# with a ``value`` field; nothing in ``repro`` reads it.
_VALUE = property(int)


class Tid(int):
    """A transaction identifier.

    ``Tid(0)`` is the *null tid* (see :data:`NULL_TID`): ``initiate`` returns
    it on failure and ``parent()`` returns it for top-level transactions.
    Zero is falsy, so paper-style code such as
    ``if (t = initiate(f)) != NULL`` translates to ``if t:``.
    """

    __slots__ = ()
    value = _VALUE

    def __repr__(self):
        return f"Tid({int.__repr__(self)})" if self else "Tid(null)"


NULL_TID = Tid(0)
"""The null transaction identifier: falsy, returned on failure."""


class ObjectId(int):
    """A persistent object identifier.

    ``name`` exists purely for readability of traces and assertion
    messages, and to place a named object on its shard; identity
    (equality/hash) is the number alone, so renaming an object id does
    not change which object it names.  Only a named id carries an
    instance dictionary.
    """

    name = ""
    value = _VALUE

    def __new__(cls, value, name=""):
        oid = int.__new__(cls, value)
        if name:
            oid.name = name
        return oid

    def __repr__(self):
        if self.name:
            return f"ObjectId({int.__repr__(self)}:{self.name})"
        return f"ObjectId({int.__repr__(self)})"


class Lsn(int):
    """A log sequence number.  Totally ordered; ``Lsn(0)`` precedes all."""

    __slots__ = ()
    value = _VALUE

    def __repr__(self):
        return f"Lsn({int.__repr__(self)})"


class IdGenerator:
    """Hands out monotonically increasing identifiers of a given type.

    One generator instance per id space (tids, object ids, LSNs).  Starts at
    1 so that 0 remains reserved for the null/zero value.
    """

    def __init__(self, factory, start=1):
        self._factory = factory
        self._counter = itertools.count(start)

    def next(self):
        """Return the next identifier in sequence."""
        return self._factory(next(self._counter))


def tid_generator():
    """Return a fresh generator of :class:`Tid` values starting at 1."""
    return IdGenerator(Tid)


def lsn_generator():
    """Return a fresh generator of :class:`Lsn` values starting at 1."""
    return IdGenerator(Lsn)

