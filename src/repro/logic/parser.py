"""Parser for the RTEC rule dialect used throughout the reproduction.

The concrete syntax follows the paper (Definitions 2.2 and 2.4):

.. code-block:: prolog

    initiatedAt(withinArea(Vessel, AreaType)=true, T) :-
        happensAt(entersArea(Vessel, Area), T),
        areaType(Area, AreaType).

    holdsFor(underWay(Vessel)=true, I) :-
        holdsFor(movingSpeed(Vessel)=below, I1),
        holdsFor(movingSpeed(Vessel)=normal, I2),
        holdsFor(movingSpeed(Vessel)=above, I3),
        union_all([I1, I2, I3], I).

Supported constructs:

* facts and rules, terminated by ``.``;
* ``not`` and ``\\+`` prefix negation on body literals;
* infix ``=`` building fluent-value pairs (``'='(F, V)``), and infix
  comparison operators ``<``, ``>``, ``=<``, ``>=``, ``=:=``, ``=\\=``;
* lists ``[I1, I2]``, represented as the reserved compound ``list(...)``
  (the empty list is the constant ``[]``);
* ``%`` line comments;
* integers and finite floats (a numeral out of range is an error),
  single-quoted atoms;
* terms nested at most :data:`MAX_NESTING` parentheses or brackets deep.

The parser is deliberately strict: anything outside this dialect raises
:class:`ParseError` with a line/column position, because the LLM-generated
event descriptions must be *validated*, not silently repaired.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Sequence, Tuple

from repro.logic.terms import Compound, Constant, Term, Variable

__all__ = [
    "ParseError",
    "Literal",
    "Rule",
    "Token",
    "canonical",
    "tokenize",
    "parse_term",
    "parse_rule",
    "parse_program",
    "clause_lines",
    "LIST_FUNCTOR",
    "COMPARISON_OPERATORS",
    "MAX_NESTING",
]

LIST_FUNCTOR = "list"

#: Deepest nesting of parentheses and brackets a term may have. Terms are
#: walked recursively after parsing (``repr``, ``term_to_str``, matching,
#: checkpoints), so one hostile line must not reach the recursion limit.
MAX_NESTING = 32

#: Infix comparison operators accepted in rule bodies.
COMPARISON_OPERATORS = ("=<", ">=", "=:=", "=\\=", "<", ">")

_SYMBOLIC_TOKENS = (
    ":-",
    "=<",
    ">=",
    "=:=",
    "=\\=",
    "\\+",
    "(",
    ")",
    "[",
    "]",
    ",",
    ".",
    "=",
    "<",
    ">",
)


class ParseError(ValueError):
    """Raised when the input text is not in the supported RTEC dialect."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__("%s (line %d, column %d)" % (message, line, column))
        self.line = line
        self.column = column


@dataclass(frozen=True)
class Token:
    kind: str  # 'atom' | 'var' | 'number' | 'punct' | 'end'
    text: str
    line: int
    column: int


@dataclass(frozen=True)
class Literal:
    """A rule-body condition: a term with an optional negation-by-failure flag."""

    term: Term
    negated: bool = False

    def __repr__(self) -> str:
        return ("not %r" % (self.term,)) if self.negated else repr(self.term)


@dataclass(frozen=True)
class Rule:
    """A rule ``head :- body`` (facts have an empty body)."""

    head: Term
    body: Tuple[Literal, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "body", tuple(self.body))

    @property
    def is_fact(self) -> bool:
        return not self.body

    @cached_property
    def key(self) -> tuple:
        """``canonical(head, *body)``, computed once: equal for rules that
        are identical up to variable renaming. It holds only type names,
        reprs and ints, so a pickled rule carries a key that is right in any
        process."""
        return canonical(self.head, *self.body)

    def __repr__(self) -> str:
        if self.is_fact:
            return "%r." % (self.head,)
        return "%r :- %s." % (self.head, ", ".join(repr(b) for b in self.body))


def canonical(*parts) -> tuple:
    """Terms and literals as nested tuples: variables numbered by first
    occurrence, constants tagged with their type. Equal for parts identical
    up to variable renaming; ``2`` and ``2.0`` differ (they render
    differently), although ``Constant(2) == Constant(2.0)``."""
    numbers: Dict[str, int] = {}

    def encode(term: Term):
        if isinstance(term, Variable):
            return numbers.setdefault(term.name, len(numbers))
        if isinstance(term, Constant):
            return (type(term.value).__name__, repr(term.value))
        return (term.functor,) + tuple(map(encode, term.args))

    return tuple(
        (part.negated, encode(part.term)) if isinstance(part, Literal) else encode(part)
        for part in parts
    )


#: Whitespace and ``%`` line comments, skipped between tokens.
_LAYOUT = re.compile(r"(?:[ \t\r\n]+|%[^\n]*)*")
#: A digit-and-dot run: a number when it has at most one dot (a '.' not
#: followed by a digit ends it, so that 'f(3).' is the number 3, then '.').
_DIGITS = re.compile(r"[0-9]+(?:\.[0-9]+)*")
_ASCII_DIGITS = frozenset("0123456789")
_WORD_REST = re.compile(r"\w*")
_SYMBOL = re.compile("|".join(re.escape(sym) for sym in _SYMBOLIC_TOKENS))


def tokenize(text: str) -> List[Token]:
    """Split ``text`` into tokens, dropping whitespace and ``%`` comments.

    A number is ASCII ``-?[0-9]+(.[0-9]+)?``; a longer digit-and-dot run
    such as ``1.2.3`` is a :class:`ParseError`, and a non-ASCII digit an
    unexpected character. A token's column is its offset from the last
    newline before it.
    """
    tokens: List[Token] = []
    i, line, line_start, n = 0, 1, 0, len(text)
    next_break = text.find("\n")  # the first newline not yet counted in ``line``
    while True:
        i = _LAYOUT.match(text, i).end()  # type: ignore[union-attr]
        if -1 < next_break < i:
            line += text.count("\n", next_break, i)
            line_start = text.rindex("\n", next_break, i) + 1
            next_break = text.find("\n", i)
        if i >= n:
            break
        ch = text[i]
        col = i - line_start + 1
        if ch == "'":
            close = text.find("'", i + 1)
            if close < 0:
                raise ParseError("unterminated quoted atom", line, col)
            tokens.append(Token("atom", text[i + 1 : close], line, col))
            i = close + 1
        elif ch in _ASCII_DIGITS or (
            ch == "-" and text[i + 1 : i + 2] in _ASCII_DIGITS and _starts_number(tokens)
        ):
            end = _DIGITS.match(text, i + (ch == "-")).end()  # type: ignore[union-attr]
            if text.count(".", i, end) > 1:
                raise ParseError("malformed number %r" % text[i:end], line, col)
            tokens.append(Token("number", text[i:end], line, col))
            i = end
        elif ch.isalpha() or ch == "_":
            end = _WORD_REST.match(text, i + 1).end()  # type: ignore[union-attr]
            kind = "var" if (ch.isupper() or ch == "_") else "atom"
            tokens.append(Token(kind, text[i:end], line, col))
            i = end
        else:
            symbol = _SYMBOL.match(text, i)
            if symbol is None:
                raise ParseError("unexpected character %r" % ch, line, col)
            tokens.append(Token("punct", symbol.group(), line, col))
            i = symbol.end()
    tokens.append(Token("end", "", line, n - line_start + 1))
    return tokens


def _starts_number(tokens: Sequence[Token]) -> bool:
    """True when a ``-`` at the current position begins a negative number literal."""
    if not tokens:
        return True
    prev = tokens[-1]
    return prev.kind == "punct" and prev.text in ("(", "[", ",") + COMPARISON_OPERATORS


class _Parser:
    def __init__(self, tokens: Sequence[Token]) -> None:
        self._tokens = tokens
        self._pos = 0
        self._depth = 0

    # -- token helpers ---------------------------------------------------

    def peek(self) -> Token:
        return self._tokens[self._pos]

    def next(self) -> Token:
        tok = self._tokens[self._pos]
        if tok.kind != "end":
            self._pos += 1
        return tok

    def expect(self, text: str) -> Token:
        tok = self.peek()
        if tok.kind == "punct" and tok.text == text:
            return self.next()
        raise ParseError(
            "expected %r, found %r" % (text, tok.text or "<end>"), tok.line, tok.column
        )

    def at(self, text: str) -> bool:
        tok = self.peek()
        return tok.kind == "punct" and tok.text == text

    # -- grammar ---------------------------------------------------------

    def parse_term(self) -> Term:
        """term := primary (('=' | comparison-op) primary)?"""
        left = self.parse_primary()
        tok = self.peek()
        if tok.kind == "punct" and (tok.text == "=" or tok.text in COMPARISON_OPERATORS):
            self.next()
            right = self.parse_primary()
            return Compound(tok.text, (left, right))
        return left

    def parse_primary(self) -> Term:
        tok = self.peek()
        if tok.kind == "number":
            self.next()
            try:
                value = float(tok.text) if "." in tok.text else int(tok.text)
            except ValueError:  # more digits than ``int`` converts
                value = math.inf
            if math.isinf(value):
                raise ParseError("number out of range", tok.line, tok.column)
            return Constant(value)
        if tok.kind == "var":
            self.next()
            return Variable(tok.text)
        if tok.kind == "atom":
            self.next()
            if self.at("("):
                return Compound(tok.text, self.parse_term_list(self.next(), ")"))
            return Constant(tok.text)
        if self.at("["):
            opener = self.next()
            if self.at("]"):
                self.next()
                return Constant("[]")
            return Compound(LIST_FUNCTOR, self.parse_term_list(opener, "]"))
        raise ParseError(
            "expected a term, found %r" % (tok.text or "<end>"), tok.line, tok.column
        )

    def parse_term_list(self, opener: Token, closer: str) -> Tuple[Term, ...]:
        """The comma-separated terms after ``opener``, through ``closer``."""
        if self._depth == MAX_NESTING:
            raise ParseError(
                "term nested deeper than %d" % MAX_NESTING, opener.line, opener.column
            )
        self._depth += 1
        items = [self.parse_term()]
        while self.at(","):
            self.next()
            items.append(self.parse_term())
        self.expect(closer)
        self._depth -= 1
        return tuple(items)

    def parse_literal(self) -> Literal:
        tok = self.peek()
        negated = False
        if (tok.kind == "atom" and tok.text == "not") or (
            tok.kind == "punct" and tok.text == "\\+"
        ):
            # 'not' only acts as negation when followed by something that can
            # start a term inside the same literal; 'not(...)' and 'not foo'
            # both negate.
            self.next()
            negated = True
            if self.at("("):
                self.next()
                term = self.parse_term()
                self.expect(")")
                return Literal(term, negated=True)
        term = self.parse_term()
        return Literal(term, negated=negated)

    def parse_rule(self) -> Rule:
        head = self.parse_term()
        if self.at("."):
            self.next()
            return Rule(head)
        self.expect(":-")
        body = [self.parse_literal()]
        while self.at(","):
            self.next()
            body.append(self.parse_literal())
        self.expect(".")
        return Rule(head, tuple(body))

    def parse_program(self) -> List[Rule]:
        rules: List[Rule] = []
        while self.peek().kind != "end":
            rules.append(self.parse_rule())
        return rules


def parse_term(text: str) -> Term:
    """Parse a single term, e.g. ``"happensAt(entersArea(Vl, A), T)"``."""
    parser = _Parser(tokenize(text))
    term = parser.parse_term()
    tok = parser.peek()
    if tok.kind != "end":
        raise ParseError("trailing input after term: %r" % tok.text, tok.line, tok.column)
    return term


def parse_rule(text: str) -> Rule:
    """Parse a single rule or fact, terminated by ``.``."""
    parser = _Parser(tokenize(text))
    rule = parser.parse_rule()
    tok = parser.peek()
    if tok.kind != "end":
        raise ParseError("trailing input after rule: %r" % tok.text, tok.line, tok.column)
    return rule


def parse_program(text: str) -> List[Rule]:
    """Parse a whole event description (a sequence of rules and facts)."""
    return _Parser(tokenize(text)).parse_program()


def clause_lines(text: str) -> List[int]:
    """The 1-based source line of each clause of a program, in order.

    Clause ``i`` of the token stream corresponds to rule ``i`` of
    :func:`parse_program` (the parser neither drops nor reorders clauses),
    so diagnostics carrying a rule index can be mapped back to source
    lines. In this dialect the ``.`` token only ever terminates a clause
    (floats are single number tokens, lists use brackets), so no nesting
    tracking is needed. Tolerant of malformed text: any tokenisation error
    yields an empty mapping.
    """
    lines: List[int] = []
    expecting_clause = True
    try:
        tokens = tokenize(text)
    except ParseError:
        return []
    for token in tokens:
        if token.kind == "end":
            break
        if expecting_clause:
            lines.append(token.line)
            expecting_clause = False
        if token.kind == "punct" and token.text == ".":
            expecting_clause = True
    return lines
