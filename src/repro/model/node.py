"""Immutable tree nodes whose structure is declared once, in ``__slots__``.

The optimizer rewrites immutable trees: the operator DAG of Section 3.1,
rewritten by the three rounds of Section 5.3, and the predicates,
``Tree`` constructors, filters and patterns those operators carry.  A
rewrite needs three facts of every node: its inputs, a copy with new
inputs, and structural equality (for fixpoints and plan-cache keys).
:class:`Node` derives all three from one declaration: a class's public
``__slots__``, base classes first, are its fields in constructor order.
Slots starting with ``_`` hold what is derived from the node (memos) and
are not fields.

* :meth:`Node._key` is the class name plus the fields: a node field by
  its own key, a tuple item by item, a ``str`` as it is and any other
  scalar tagged with its type — so ``Const(1)``, ``Const(1.0)`` and
  ``Const(True)`` stay apart, which a field-wise ``==`` would not.  The
  key is computed once per instance; ``==`` and ``hash`` use it.
* :meth:`Node.parts` is the nodes of one family the fields hold, in
  field order, looking inside tuples.
* :meth:`Node.remade` is a copy with those parts mapped, built by
  calling the class with its fields, or the node itself when nothing
  changed.

A class whose public slots are not its ``__init__`` parameters, in
order, is refused with ``TypeError`` when it is defined.
"""

from __future__ import annotations

from typing import Callable, Tuple


class Node:
    """Base class of immutable, structurally compared tree nodes."""

    __slots__ = ("_key_memo",)

    #: Public slots of the class and its bases: the constructor's
    #: parameters, in order.
    _fields: Tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        fields = tuple(
            name
            for klass in reversed(cls.__mro__)
            for name in klass.__dict__.get("__slots__", ())
            if not name.startswith("_")
        )
        code = getattr(cls.__init__, "__code__", None)  # None: object's
        params = code.co_varnames[1:code.co_argcount] if code else ()
        if params != fields:
            raise TypeError(
                f"{cls.__name__}: public slots {fields} are not the "
                f"__init__ parameters {params}"
            )
        cls._fields = fields

    def _key(self) -> tuple:
        try:
            return self._key_memo
        except AttributeError:
            pass
        key = self._key_memo = (
            self.__class__.__name__,
            *[_keyed(getattr(self, name)) for name in self._fields],
        )
        return key

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Node):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def parts(self, family: type) -> tuple:
        """The *family* nodes this node's fields hold, in field order."""
        found: list = []
        for name in self._fields:
            value = getattr(self, name)
            if isinstance(value, family):
                found.append(value)
            elif value.__class__ is tuple:
                _gather(value, family, found)
        return tuple(found)

    def remade(self, family: type, fn: Callable[["Node"], "Node"]) -> "Node":
        """A copy with each of :meth:`parts` replaced by ``fn(part)``;
        ``self`` when every part maps to itself."""
        old = [getattr(self, name) for name in self._fields]
        new = [_mapped(value, family, fn) for value in old]
        for value, replaced in zip(old, new):
            if value is not replaced:
                return self.__class__(*new)
        return self


def _keyed(value):
    if isinstance(value, Node):
        return value._key()
    kind = value.__class__
    if kind is str or value is None:
        return value
    if kind is tuple:
        return tuple([_keyed(item) for item in value])
    return (kind, value)


def _gather(values, family: type, found: list) -> None:
    for value in values:
        if isinstance(value, family):
            found.append(value)
        elif value.__class__ is tuple:
            _gather(value, family, found)


def _mapped(value, family: type, fn):
    if isinstance(value, family):
        return fn(value)
    if value.__class__ is not tuple:
        return value
    items = tuple([_mapped(item, family, fn) for item in value])
    for item, replaced in zip(value, items):
        if item is not replaced:
            return items
    return value
