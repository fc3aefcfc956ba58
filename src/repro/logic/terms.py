"""First-order term representation for RTEC rules.

Terms come in three shapes:

* :class:`Variable` — a logic variable (``Vessel``, ``T``). Identified by
  name within a rule.
* :class:`Constant` — an atom (``fishing``), a number (``23``, ``0.5``) or a
  string. Atoms are stored as ``str``, numbers as ``int``/``float``.
* :class:`Compound` — a functor applied to one or more argument terms
  (``entersArea(Vessel, Area)``). A fluent-value pair ``F = V`` is the
  compound ``'='(F, V)``, mirroring the prefix reading used by the paper
  (Example 4.10).

All terms are immutable and hashable so they can be used as dictionary keys
(e.g. to index maximal-interval caches by ground FVP). A term computes its
hash and its ``ground`` flag once, at construction: a dict lookup on a
compound costs one slot read, not a walk over its arguments. Equality and
hash values are those of the frozen dataclasses these classes replaced
(``Constant(2) == Constant(2.0)``, terms of different classes never equal).
``str`` hashes are per-process unless ``PYTHONHASHSEED`` is pinned, so a term
pickles as ``(class, fields)`` and recomputes its hash on load.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError
from typing import Iterator, Tuple, Union

__all__ = [
    "Term",
    "Variable",
    "Constant",
    "Compound",
    "fvp",
    "make_atom",
    "make_compound",
    "intern_constant",
    "is_fvp",
    "is_ground",
    "term_variables",
    "walk_subterms",
]

_set = object.__setattr__


class _Frozen:
    """Immutability and the cached hash shared by the three term classes."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError("cannot assign to field %r" % name)

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError("cannot delete field %r" % name)

    def __hash__(self) -> int:
        return self._hash  # type: ignore[attr-defined]

    def __reduce__(self):  # (class, fields): a cached hash is per process
        fields = [name for name in self.__slots__ if name not in ("_hash", "ground")]
        return self.__class__, tuple(getattr(self, name) for name in fields)


class Variable(_Frozen):
    """A logic variable, e.g. ``Vessel`` or ``T``."""

    __slots__ = ("name", "_hash")
    name: str
    ground = False

    def __init__(self, name: str) -> None:
        _set(self, "name", name)
        _set(self, "_hash", hash((name,)))

    __hash__ = _Frozen.__hash__

    def __eq__(self, other: object) -> bool:
        if other.__class__ is Variable:
            return self.name == other.name  # type: ignore[attr-defined]
        return NotImplemented

    def __repr__(self) -> str:
        return self.name


class Constant(_Frozen):
    """An atom, number or string constant.

    ``value`` holds a ``str`` for atoms (``fishing``) and an ``int`` or
    ``float`` for numbers.
    """

    __slots__ = ("value", "_hash")
    value: Union[str, int, float]
    ground = True

    def __init__(self, value: Union[str, int, float]) -> None:
        _set(self, "value", value)
        _set(self, "_hash", hash((value,)))

    __hash__ = _Frozen.__hash__

    def __eq__(self, other: object) -> bool:
        if other.__class__ is Constant:
            # Identity first, as tuple comparison does: a constant holding
            # one ``nan`` object equals itself.
            mine, theirs = self.value, other.value  # type: ignore[attr-defined]
            return mine is theirs or mine == theirs
        return NotImplemented

    def __repr__(self) -> str:
        return str(self.value)

    @property
    def is_number(self) -> bool:
        return isinstance(self.value, (int, float))


class Compound(_Frozen):
    """A functor with arguments, e.g. ``entersArea(Vessel, Area)``."""

    __slots__ = ("functor", "args", "ground", "_hash")
    functor: str
    args: Tuple["Term", ...]
    ground: bool

    def __init__(self, functor: str, args: Tuple["Term", ...]) -> None:
        args = tuple(args)
        if not args:
            raise ValueError(
                "Compound terms need at least one argument; "
                "use Constant for zero-arity atoms"
            )
        _set(self, "functor", functor)
        _set(self, "args", args)
        _set(self, "ground", all([arg.ground for arg in args]))
        _set(self, "_hash", hash((functor, args)))

    __hash__ = _Frozen.__hash__

    def __eq__(self, other: object) -> bool:
        if other.__class__ is Compound:
            return self is other or (
                self._hash == other._hash  # type: ignore[attr-defined]
                and self.functor == other.functor  # type: ignore[attr-defined]
                and self.args == other.args  # type: ignore[attr-defined]
            )
        return NotImplemented

    @property
    def arity(self) -> int:
        return len(self.args)

    def __repr__(self) -> str:
        return "%s(%s)" % (self.functor, ", ".join(repr(a) for a in self.args))


Term = Union[Variable, Constant, Compound]

_new = object.__new__


def make_compound(functor: str, args: Tuple[Term, ...], ground: bool) -> Compound:
    """``Compound(functor, args)`` for a caller that has established what the
    constructor checks: ``args`` is a non-empty tuple of terms, all ground or
    not as ``ground`` says (the rule compiler knows both statically)."""
    term = _new(Compound)
    _set(term, "functor", functor)
    _set(term, "args", args)
    _set(term, "ground", ground)
    _set(term, "_hash", hash((functor, args)))
    return term


def make_atom(functor: str, *args: Term) -> Term:
    """Build ``functor(*args)``, or a plain atom when no args are given."""
    if not args:
        return Constant(functor)
    return Compound(functor, tuple(args))


_INTERNED: dict = {}


def intern_constant(value: Union[str, int, float]) -> Constant:
    """A :class:`Constant` for ``value``; shared when ``value`` is an atom.

    Ingest wraps the same vessel and area names millions of times per run;
    interning makes the wrappers identical objects, so the ``left is right``
    fast paths of matching and dict lookups hit. Numbers are *not* interned:
    a stream is an unbounded supply of distinct coordinates and time-points,
    and the table would grow with the stream instead of with the vocabulary.
    """
    if value.__class__ is not str:
        return Constant(value)
    constant = _INTERNED.get(value)
    if constant is None:
        constant = _INTERNED[value] = Constant(value)
    return constant


def fvp(fluent: Term, value: Term) -> Compound:
    """Build the fluent-value pair ``fluent = value`` as ``'='(fluent, value)``."""
    return Compound("=", (fluent, value))


def is_fvp(term: Term) -> bool:
    """True when ``term`` has the shape ``F = V``."""
    return isinstance(term, Compound) and term.functor == "=" and term.arity == 2


def is_ground(term: Term) -> bool:
    """True when ``term`` contains no variables (read off the cached flag)."""
    return term.ground


def term_variables(term: Term) -> "list[Variable]":
    """All variables of ``term`` in depth-first, left-to-right order, deduplicated."""
    seen = []
    for sub in walk_subterms(term):
        if isinstance(sub, Variable) and sub not in seen:
            seen.append(sub)
    return seen


def walk_subterms(term: Term) -> Iterator[Term]:
    """Yield ``term`` and every subterm, depth-first and left-to-right."""
    yield term
    if isinstance(term, Compound):
        for arg in term.args:
            yield from walk_subterms(arg)
