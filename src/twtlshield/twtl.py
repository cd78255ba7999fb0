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
    """Base class for formula nodes; all nodes are immutable and hashable."""


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Not(Formula):
    child: Formula


@dataclass(frozen=True)
class Concat(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
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


# Printing.  Precedence, loosest first: concat < or < and < prefix/primary.
_PREC_CONCAT, _PREC_OR, _PREC_AND, _PREC_PRIMARY = 1, 2, 3, 4


def _precedence(formula):
    if isinstance(formula, Concat):
        return _PREC_CONCAT
    if isinstance(formula, Or):
        return _PREC_OR
    if isinstance(formula, And):
        return _PREC_AND
    return _PREC_PRIMARY


def format_formula(formula: Formula) -> str:
    """Render to the concrete ASCII grammar; parse(format(f)) == f."""
    return _format(formula, 0)


def _format(node, parent_prec):
    prec = _precedence(node)
    if isinstance(node, Hold):
        body = "TRUE" if node.prop is None else ("!" + node.prop if node.negated else node.prop)
        text = f"H^{node.duration} {body}"
    elif isinstance(node, Within):
        text = f"[{_format(node.child, 0)}]^[{node.low},{node.high}]"
    elif isinstance(node, Not):
        text = f"!({_format(node.child, 0)})"
    elif isinstance(node, (And, Or, Concat)):
        op = {And: " & ", Or: " | ", Concat: " . "}[type(node)]
        # The parser is right-associative, so a same-operator left child
        # needs parentheses to round-trip structurally.
        left = _format(node.left, prec + 1) if type(node.left) is type(node) else _format(node.left, prec)
        right = _format(node.right, prec)
        text = left + op + right
    else:
        raise TypeError(f"not a formula node: {node!r}")
    if prec < parent_prec:
        return f"({text})"
    return text


class _Token:
    __slots__ = ("kind", "value", "line", "column")

    def __init__(self, kind, value, line, column):
        self.kind = kind
        self.value = value
        self.line = line
        self.column = column


_TOKEN_SPEC = [
    ("INT", re.compile(r"\d+")),
    ("IDENT", re.compile(r"[A-Za-z_][A-Za-z0-9_]*")),
    ("OP", re.compile(r"[\^\[\],()&|.!]")),
]


def _tokenize(text):
    tokens = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        for kind, pattern in _TOKEN_SPEC:
            m = pattern.match(text, i)
            if m:
                tokens.append(_Token(kind, m.group(), line, col))
                col += len(m.group())
                i = m.end()
                break
        else:
            raise TwtlSyntaxError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("EOF", "", line, col))
    return tokens


class _Parser:
    """Recursive descent over: concat < or < and < (hold | within | !unary | parens)."""

    def __init__(self, tokens, alphabet):
        self.tokens = tokens
        self.pos = 0
        self.alphabet = alphabet

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, value, what=None):
        tok = self.peek()
        if tok.value != value:
            shown = what or repr(value)
            raise TwtlSyntaxError(f"expected {shown}, found {tok.value!r}" if tok.kind != "EOF"
                                  else f"expected {shown}, found end of input", tok.line, tok.column)
        return self.advance()

    def parse(self):
        node = self.concat()
        tok = self.peek()
        if tok.kind != "EOF":
            raise TwtlSyntaxError(f"unexpected trailing input {tok.value!r}", tok.line, tok.column)
        return node

    def concat(self):
        parts = [self.disjunction()]
        while self.peek().value == ".":
            self.advance()
            parts.append(self.disjunction())
        node = parts[-1]
        for part in reversed(parts[:-1]):
            node = Concat(part, node)
        return node

    def disjunction(self):
        parts = [self.conjunction()]
        while self.peek().value == "|":
            self.advance()
            parts.append(self.conjunction())
        node = parts[-1]
        for part in reversed(parts[:-1]):
            node = Or(part, node)
        return node

    def conjunction(self):
        parts = [self.unary()]
        while self.peek().value == "&":
            self.advance()
            parts.append(self.unary())
        node = parts[-1]
        for part in reversed(parts[:-1]):
            node = And(part, node)
        return node

    def unary(self):
        tok = self.peek()
        if tok.value == "!":
            self.advance()
            return Not(self.unary())
        if tok.value == "(":
            self.advance()
            node = self.concat()
            self.expect(")")
            return node
        if tok.value == "[":
            return self.within()
        if tok.kind == "IDENT" and tok.value == "H":
            return self.hold()
        raise TwtlSyntaxError(f"expected a formula, found {tok.value!r}" if tok.kind != "EOF"
                              else "expected a formula, found end of input", tok.line, tok.column)

    def hold(self):
        self.advance()  # H
        self.expect("^")
        duration = int(self.expect_int("hold duration"))
        negated = False
        if self.peek().value == "!":
            self.advance()
            negated = True
        tok = self.peek()
        if tok.kind != "IDENT":
            raise TwtlSyntaxError(f"expected a proposition, found {tok.value!r}", tok.line, tok.column)
        self.advance()
        if tok.value == "TRUE":
            if negated:
                raise TwtlSyntaxError("TRUE cannot be negated inside a hold", tok.line, tok.column)
            return Hold(duration, None)
        if self.alphabet is not None and tok.value not in self.alphabet:
            raise UnknownPropositionError(tok.value, tok.line, tok.column)
        return Hold(duration, tok.value, negated)

    def within(self):
        self.expect("[")
        child = self.concat()
        self.expect("]")
        self.expect("^")
        self.expect("[")
        low = int(self.expect_int("window start"))
        self.expect(",")
        high = int(self.expect_int("window end"))
        self.expect("]")
        tok = self.tokens[self.pos - 1]
        if low > high:
            raise TwtlSyntaxError(f"window start {low} exceeds window end {high}", tok.line, tok.column)
        return Within(child, low, high)

    def expect_int(self, what):
        tok = self.peek()
        if tok.kind != "INT":
            raise TwtlSyntaxError(f"expected {what}, found {tok.value!r}" if tok.kind != "EOF"
                                  else f"expected {what}, found end of input", tok.line, tok.column)
        self.advance()
        return tok.value


def parse_formula(text: str, alphabet: Iterable[str] | None = None) -> Formula:
    """Parse the ASCII grammar.  ``alphabet`` of None accepts any identifier."""
    if alphabet is not None:
        alphabet = frozenset(alphabet)
        for name in alphabet:
            if not PROP_RE.match(name) or name == "TRUE":
                raise TwtlError(f"invalid proposition name in alphabet: {name!r}")
    return _Parser(_tokenize(text), alphabet).parse()


def make_word(symbols: Iterable[Iterable[str]]) -> Word:
    """Build a word (tuple of frozen label sets) from any nested iterable."""
    return tuple(frozenset(sym) for sym in symbols)
