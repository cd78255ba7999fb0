"""Compilation of formulas into deterministic total automata.

Construction is by formula progression: each automaton state is a canonical
residual formula (what still has to be observed), reading a symbol rewrites
the residual, and syntactically identical residuals are merged.  A residual
of true maps to the single accepting state, which self-loops on every symbol;
a residual of false maps to the absorbing trash state.  The transition
function is total by construction.

Only the grammar fragment without negation of compound formulas is compiled;
``H^d !x`` is fine, ``!(phi)`` is rejected.
"""

from __future__ import annotations

import json
from itertools import combinations

from .twtl import (And, Concat, Formula, Hold, Not, Or, Within, Word,
                   format_formula, make_word, propositions, time_bound,
                   UnknownPropositionError)


class AutomatonError(Exception):
    pass


class UnsupportedConstructError(AutomatonError):
    """Raised for formulas outside the compilable fragment."""


class StateExplosionError(AutomatonError):
    pass


class UnknownSymbolError(AutomatonError):
    def __init__(self, props):
        super().__init__(f"symbol uses propositions outside the automaton alphabet: {sorted(props)}")
        self.props = frozenset(props)


class _Truth:
    __slots__ = ()

    def __repr__(self):
        return "TRUE"


class _Falsity:
    __slots__ = ()

    def __repr__(self):
        return "FALSE"


_TRUE = _Truth()
_FALSE = _Falsity()


def _key(node):
    if node is _TRUE:
        return "\x00T"
    if node is _FALSE:
        return "\x00F"
    return format_formula(node)


def _make_and(items):
    flat = []
    for item in items:
        if item is _FALSE:
            return _FALSE
        if item is _TRUE:
            continue
        if isinstance(item, And):
            flat.extend(_flatten(item, And))
        else:
            flat.append(item)
    return _rebuild(flat, And, empty=_TRUE)


def _make_or(items):
    flat = []
    for item in items:
        if item is _TRUE:
            return _TRUE
        if item is _FALSE:
            continue
        if isinstance(item, Or):
            flat.extend(_flatten(item, Or))
        else:
            flat.append(item)
    return _rebuild(flat, Or, empty=_FALSE)


def _flatten(node, cls):
    # node is already canonical, so only the right spine can nest.
    items = []
    while isinstance(node, cls):
        items.append(node.left)
        node = node.right
    items.append(node)
    return items


def _rebuild(items, cls, empty):
    unique = {_key(item): item for item in items}
    ordered = [unique[k] for k in sorted(unique)]
    if not ordered:
        return empty
    node = ordered[-1]
    for item in reversed(ordered[:-1]):
        node = cls(item, node)
    return node


def _make_concat(left, right):
    if left is _FALSE or right is _FALSE:
        return _FALSE
    if left is _TRUE:
        return right
    if right is _TRUE:
        return left
    if isinstance(left, Concat):
        return Concat(left.left, _make_concat(left.right, right))
    return Concat(left, right)


def _make_within(child, low, high):
    if child is _FALSE or high < low:
        return _FALSE
    if time_bound(child) > high - low:
        return _FALSE
    return Within(child, low, high)


def _canonical(node):
    """Rewrite into the canonical shape used for residual merging."""
    if node is _TRUE or node is _FALSE:
        return node
    if isinstance(node, Hold):
        return node
    if isinstance(node, And):
        return _make_and([_canonical(node.left), _canonical(node.right)])
    if isinstance(node, Or):
        return _make_or([_canonical(node.left), _canonical(node.right)])
    if isinstance(node, Concat):
        return _make_concat(_canonical(node.left), _canonical(node.right))
    if isinstance(node, Within):
        return _make_within(_canonical(node.child), node.low, node.high)
    if isinstance(node, Not):
        raise UnsupportedConstructError(
            "negation of compound formulas is not supported by the automaton "
            "compiler; use H^d !x for negated propositions")
    raise TypeError(f"not a formula node: {node!r}")


def _progress(node, sym):
    """Residual after observing ``sym`` (a frozenset of propositions)."""
    if isinstance(node, Hold):
        if node.prop is not None and (node.prop in sym) == node.negated:
            return _FALSE
        if node.duration == 0:
            return _TRUE
        return Hold(node.duration - 1, node.prop, node.negated)
    if isinstance(node, And):
        return _make_and([_progress(node.left, sym), _progress(node.right, sym)])
    if isinstance(node, Or):
        return _make_or([_progress(node.left, sym), _progress(node.right, sym)])
    if isinstance(node, Concat):
        left = _progress(node.left, sym)
        if left is _TRUE:
            return node.right
        return _make_concat(left, node.right)
    if isinstance(node, Within):
        if node.low > 0:
            return _make_within(node.child, node.low - 1, node.high - 1)
        started = _progress(node.child, sym)
        delayed = _make_within(node.child, 0, node.high - 1) if node.high >= 1 else _FALSE
        return _make_or([started, delayed])
    raise TypeError(f"not a formula node: {node!r}")


class TotalAutomaton:
    """Deterministic automaton with a total transition function.

    States are integers; ``annotations`` maps each state to the canonical
    residual it stands for.  The accepting state self-loops on every symbol
    and the trash state is absorbing; the trash state exists even when it is
    unreachable so that downstream constructions can rely on it.
    """

    def __init__(self, props, initial, accepting, trash, annotations,
                 relevant, proj_table, reachable):
        self.props = tuple(props)
        self.initial = initial
        self.accepting = frozenset(accepting)
        self.trash = trash
        self.annotations = dict(annotations)
        self.n_states = len(annotations)
        self.reachable = frozenset(reachable)
        self._relevant = tuple(relevant)
        self._proj_table = proj_table
        self._rel_bit = {name: 1 << i for i, name in enumerate(self._relevant)}
        self._sym_cache = {}

    @property
    def states(self):
        return tuple(range(self.n_states))

    def _rel_mask(self, sym):
        cached = self._sym_cache.get(sym)
        if cached is not None:
            return cached
        extra = frozenset(sym) - frozenset(self.props)
        if extra:
            raise UnknownSymbolError(extra)
        mask = 0
        for name in sym:
            bit = self._rel_bit.get(name)
            if bit:
                mask |= bit
        self._sym_cache[sym] = mask
        return mask

    def step(self, q, sym):
        return self._proj_table[q][self._rel_mask(frozenset(sym))]

    def run(self, word: Word) -> int:
        q = self.initial
        for sym in word:
            q = self._proj_table[q][self._rel_mask(frozenset(sym))]
        return q

    def alphabet(self):
        """All label sets over the declared propositions."""
        syms = []
        for r in range(len(self.props) + 1):
            for combo in combinations(self.props, r):
                syms.append(frozenset(combo))
        return syms


def compile_formula(formula: Formula, alphabet, max_states=100000) -> TotalAutomaton:
    """Compile into a total automaton over ``2**len(alphabet)`` symbols."""
    props = tuple(sorted(frozenset(alphabet)))
    used = propositions(formula)
    missing = used - frozenset(props)
    if missing:
        raise UnknownPropositionError(sorted(missing)[0])
    relevant = tuple(sorted(used))
    rel_syms = [frozenset(name for i, name in enumerate(relevant) if mask & (1 << i))
                for mask in range(1 << len(relevant))]

    root = _canonical(formula)
    ids = {}
    annotations = {}

    def intern(node):
        key = _key(node)
        state = ids.get(key)
        if state is None:
            state = len(ids)
            ids[key] = state
            annotations[state] = repr(node) if node is _TRUE or node is _FALSE else format_formula(node)
            if len(ids) > max_states:
                raise StateExplosionError(f"more than {max_states} automaton states")
        return state, node

    initial, root = intern(root)
    frontier = [(initial, root)]
    seen = {initial}
    proj_table = {}
    while frontier:
        state, node = frontier.pop(0)
        row = {}
        for mask, sym in enumerate(rel_syms):
            if node is _TRUE:
                nxt_node = _TRUE
            elif node is _FALSE:
                nxt_node = _FALSE
            else:
                nxt_node = _progress(node, sym)
            nxt, nxt_node = intern(nxt_node)
            row[mask] = nxt
            if nxt not in seen:
                seen.add(nxt)
                frontier.append((nxt, nxt_node))
        proj_table[state] = row

    # The trash state is materialized unconditionally; the accepting state
    # only exists when some word can complete the formula.
    if _key(_FALSE) not in ids:
        trash, _ = intern(_FALSE)
        proj_table[trash] = {mask: trash for mask in range(len(rel_syms))}
    trash = ids[_key(_FALSE)]
    accepting = frozenset([ids[_key(_TRUE)]]) if _key(_TRUE) in ids else frozenset()

    # The walk above visited exactly the states reachable from the initial one.
    return TotalAutomaton(props, initial, accepting, trash, annotations,
                          relevant, proj_table, seen)


def accepts(automaton: TotalAutomaton, word: Word) -> bool:
    return automaton.run(make_word(word)) in automaton.accepting


def to_dot(automaton: TotalAutomaton) -> str:
    """Graph description with merged edge labels between identical endpoints."""
    lines = ["digraph twtl {", "  rankdir=LR;", '  __init [shape=point, label=""];']
    for q in range(automaton.n_states):
        if q in automaton.accepting:
            shape = "doublecircle"
        elif q == automaton.trash:
            shape = "box"
        else:
            shape = "circle"
        label = automaton.annotations[q].replace('"', '\\"')
        lines.append(f'  q{q} [shape={shape}, label="q{q}: {label}"];')
    lines.append(f"  __init -> q{automaton.initial};")
    merged = {}
    for sym in automaton.alphabet():
        text = "{" + ",".join(sorted(sym)) + "}"
        for q in range(automaton.n_states):
            dst = automaton.step(q, sym)
            merged.setdefault((q, dst), []).append(text)
    for (src, dst), labels in sorted(merged.items()):
        joined = ", ".join(labels).replace('"', '\\"')
        lines.append(f'  q{src} -> q{dst} [label="{joined}"];')
    lines.append("}")
    return "\n".join(lines)


def to_json(automaton: TotalAutomaton) -> str:
    delta = []
    for q in range(automaton.n_states):
        for sym in automaton.alphabet():
            delta.append([q, sorted(sym), automaton.step(q, sym)])
    doc = {
        "props": list(automaton.props),
        "states": list(range(automaton.n_states)),
        "n_reachable": len(automaton.reachable),
        "initial": automaton.initial,
        "accepting": sorted(automaton.accepting),
        "trash": automaton.trash,
        "annotations": {str(q): a for q, a in automaton.annotations.items()},
        "delta": delta,
    }
    return json.dumps(doc, indent=2, sort_keys=True)
