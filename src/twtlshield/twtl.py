"""Time-window temporal logic: syntax tree, parser, printer, and time bounds.

Formulas are built from hold operators over atomic propositions, Boolean
connectives, concatenation, and bracketed time windows:

    H^2 B                hold: B must be observed at 3 consecutive steps
    H^1 !B               hold over a negated proposition
    [H^1 B]^[0,2]        within: satisfy the body inside the window [0,2]
    phi . psi            concatenation: psi starts right after phi completes
    phi & psi, phi | psi, !phi

Words are finite sequences of label sets (one set of propositions per time
step).  A hold of duration d consumes d+1 observations.  Concatenation splits
at the *earliest* time the left operand is satisfied, which is the convention
the automaton construction realizes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable

PROP_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

Word = tuple[frozenset[str], ...]


class TwtlError(Exception):
    """Base class for formula-level errors."""


class TwtlSyntaxError(TwtlError):
    def __init__(self, message, line, column):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class UnknownPropositionError(TwtlError):
    def __init__(self, name, line=None, column=None):
        where = f" (line {line}, column {column})" if line is not None else ""
        super().__init__(f"unknown proposition '{name}'{where}")
        self.name = name


@dataclass(frozen=True)
class Formula:
    """Base class for formula nodes: immutable, and equal and hashed by structure
    through :meth:`_flat`, which walks a tree without recursion."""

    def _flat(self):
        """Each node's type and plain fields, one node after another: equal for equal trees only."""
        flat, stack = [], [self]
        while stack:
            node = stack.pop()
            values = [getattr(node, name) for name in node.__match_args__]
            flat += [type(node), *(x for x in values if not isinstance(x, Formula))]
            stack += [x for x in values if isinstance(x, Formula)]
        return tuple(flat)

    def __eq__(self, other):
        if not isinstance(other, Formula):
            return NotImplemented
        return self is other or self._flat() == other._flat()

    def __hash__(self):
        return hash(self._flat())


@dataclass(frozen=True, eq=False)
class Hold(Formula):
    """H^d x or H^d !x.  ``prop`` of None stands for the true constant."""

    duration: int
    prop: str | None
    negated: bool = False

    def __post_init__(self):
        if self.duration < 0:
            raise ValueError("hold duration must be nonnegative")
        if self.prop is None and self.negated:
            raise ValueError("the true constant cannot be negated in a hold")
        if self.prop is not None and not PROP_RE.match(self.prop):
            raise ValueError(f"invalid proposition name: {self.prop!r}")


@dataclass(frozen=True, eq=False)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, eq=False)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, eq=False)
class Not(Formula):
    child: Formula


@dataclass(frozen=True, eq=False)
class Concat(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, eq=False)
class Within(Formula):
    child: Formula
    low: int
    high: int

    def __post_init__(self):
        if not (0 <= self.low <= self.high):
            raise ValueError(f"within window must satisfy 0 <= a <= b, got [{self.low},{self.high}]")


def time_bound(formula: Formula) -> int:
    """Maximum number of time steps needed to decide the formula."""
    if isinstance(formula, Hold):
        return formula.duration
    if isinstance(formula, (And, Or)):
        return max(time_bound(formula.left), time_bound(formula.right))
    if isinstance(formula, Not):
        return time_bound(formula.child)
    if isinstance(formula, Concat):
        return time_bound(formula.left) + time_bound(formula.right) + 1
    if isinstance(formula, Within):
        return formula.high
    raise TypeError(f"not a formula node: {formula!r}")


def segment_ends(formula: Formula) -> tuple[int, ...]:
    """Where a multi-shot shield splits the horizon: 0, then the time bounds of phi1, phi1 . phi2,
    ..., phi for the top-level phi = phi1 . phi2 . ... (its right spine), skipping an end of 0."""
    ends, end = [], -1
    while isinstance(formula, Concat):
        end += time_bound(formula.left) + 1
        ends.append(end)
        formula = formula.right
    ends.append(end + time_bound(formula) + 1)
    return (0, *filter(None, ends))


def propositions(formula: Formula) -> frozenset[str]:
    """All proposition names appearing in the formula."""
    if isinstance(formula, Hold):
        return frozenset() if formula.prop is None else frozenset([formula.prop])
    if isinstance(formula, (And, Or, Concat)):
        return propositions(formula.left) | propositions(formula.right)
    if isinstance(formula, Not):
        return propositions(formula.child)
    if isinstance(formula, Within):
        return propositions(formula.child)
    raise TypeError(f"not a formula node: {formula!r}")


# The binary operators, loosest first: the parser's levels and the printer's
# precedence both come from this table.  Each folds to the right.
_BINARY = ((Concat, "."), (Or, "|"), (And, "&"))
_LEVEL = {cls: level for level, (cls, _) in enumerate(_BINARY)}


def format_formula(formula: Formula) -> str:
    """Render to the concrete ASCII grammar; parse(format(f)) == f."""
    return _format(formula, 0)


def _format(node, parent_level):
    if isinstance(node, Hold):
        body = "TRUE" if node.prop is None else ("!" + node.prop if node.negated else node.prop)
        text = f"H^{node.duration} {body}"
    elif isinstance(node, Within):
        text = f"[{_format(node.child, 0)}]^[{node.low},{node.high}]"
    elif isinstance(node, Not):
        text = f"!({_format(node.child, 0)})"
    elif type(node) in _LEVEL:
        level = _LEVEL[type(node)]
        # The parser folds to the right, so a left child with the same operator
        # needs parentheses to round-trip structurally.
        left = _format(node.left, level + (type(node.left) is type(node)))
        text = f"{left} {_BINARY[level][1]} {_format(node.right, level)}"
    else:
        raise TypeError(f"not a formula node: {node!r}")
    return f"({text})" if _LEVEL.get(type(node), parent_level) < parent_level else text


# A token is an integer (any Unicode digits), an identifier or one operator character;
# whitespace separates tokens, and any other character is an error.
_SCAN = re.compile(r"\d+|[A-Za-z_][A-Za-z0-9_]*|[\^\[\],()&|.!]")
_BAD = re.compile(r"[^\d\sA-Za-z_\^\[\],()&|.!]")


def _position(text, offset):
    """Line and column of ``offset``, both from 1; a column counts characters, so a tab is one."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


class _Parser:
    """Recursive descent over the levels of ``_BINARY``, then (hold | within | !unary | parens).

    ``tokens`` are the texts of one scan, ended by "" for the end of input.  A token's
    kind is read from its text, and its line and column are worked out only for an error.
    """

    def __init__(self, text, alphabet):
        bad = _BAD.search(text)
        if bad:
            raise TwtlSyntaxError(f"unexpected character {bad.group()!r}", *_position(text, bad.start()))
        self.text = text
        self.tokens = _SCAN.findall(text) + [""]
        self.pos = 0
        self.alphabet = alphabet

    def where(self, pos):
        """Line and column of token ``pos``."""
        starts = [m.start() for m in _SCAN.finditer(self.text)] + [len(self.text)]
        return _position(self.text, starts[pos])

    def fail(self, what):
        tok = self.tokens[self.pos]
        found = repr(tok) if tok else "end of input"
        raise TwtlSyntaxError(f"expected {what}, found {found}", *self.where(self.pos))

    def expect(self, value):
        if self.tokens[self.pos] != value:
            self.fail(repr(value))
        self.pos += 1

    def expect_int(self, what):
        tok = self.tokens[self.pos]
        if not tok[:1].isdecimal():
            self.fail(what)
        self.pos += 1
        return int(tok)

    def parse(self):
        node = self.binary()
        if self.tokens[self.pos]:
            raise TwtlSyntaxError(f"unexpected trailing input {self.tokens[self.pos]!r}",
                                  *self.where(self.pos))
        return node

    def binary(self, level=0):
        """Operands of the next level (unary ones below the last), folded to the right."""
        cls, op = _BINARY[level]
        parts = []
        while True:
            parts.append(self.unary() if level + 1 == len(_BINARY) else self.binary(level + 1))
            if self.tokens[self.pos] != op:
                break
            self.pos += 1
        node = parts.pop()
        for part in reversed(parts):
            node = cls(part, node)
        return node

    def unary(self):
        tok = self.tokens[self.pos]
        if tok == "!":
            self.pos += 1
            return Not(self.unary())
        if tok == "(":
            self.pos += 1
            node = self.binary()
            self.expect(")")
            return node
        if tok == "[":
            return self.within()
        if tok == "H":
            return self.hold()
        self.fail("a formula")

    def hold(self):
        self.pos += 1  # H
        self.expect("^")
        duration = self.expect_int("hold duration")
        negated = self.tokens[self.pos] == "!"
        self.pos += negated
        tok = self.tokens[self.pos]
        if not tok.isidentifier():      # an integer, an operator or the end is not
            self.fail("a proposition")
        self.pos += 1
        if tok == "TRUE":
            if negated:
                raise TwtlSyntaxError("TRUE cannot be negated inside a hold", *self.where(self.pos - 1))
            return Hold(duration, None)
        if self.alphabet is not None and tok not in self.alphabet:
            raise UnknownPropositionError(tok, *self.where(self.pos - 1))
        return Hold(duration, tok, negated)

    def within(self):
        self.pos += 1  # [
        child = self.binary()
        self.expect("]")
        self.expect("^")
        self.expect("[")
        low = self.expect_int("window start")
        self.expect(",")
        high = self.expect_int("window end")
        self.expect("]")
        if low > high:
            raise TwtlSyntaxError(f"window start {low} exceeds window end {high}",
                                  *self.where(self.pos - 1))
        return Within(child, low, high)


def parse_formula(text: str, alphabet: Iterable[str] | None = None) -> Formula:
    """Parse the ASCII grammar.  ``alphabet`` of None accepts any identifier."""
    if alphabet is not None:
        alphabet = frozenset(alphabet)
        bad = [name for name in alphabet if not PROP_RE.match(name) or name == "TRUE"]
        if bad:
            raise TwtlError(f"invalid proposition name in alphabet: {min(bad)!r}")
    # The parser and every pass over the tree recurse once per level, so a
    # formula nested past the recursion limit is refused here, in one walk.
    try:
        formula = _Parser(text, alphabet).parse()
        time_bound(formula)
    except RecursionError:
        raise TwtlError("formula is nested too deeply") from None
    return formula
