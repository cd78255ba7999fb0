"""Compilation of formulas into deterministic total automata.

Construction is by formula progression: each automaton state is a canonical
residual formula (what still has to be observed), reading a symbol rewrites
the residual, and syntactically identical residuals are merged.  A symbol is
a label mask throughout: bit ``bit[name]`` for each proposition the formula
uses.  Residuals are hash-consed within one compilation, so identical
residuals are one node and merge by identity; each node's text is assembled
from its children's when it is made, and progression is memoized per node and
the label bits it reads.
States are numbered in the order the breadth-first walk finds them, and
``table[q]`` is filled in that order.  A residual of true maps to the single
accepting state, which self-loops on every symbol; a residual of false maps to
the absorbing trash state.  The transition function is total by construction.

Only the grammar fragment without negation of compound formulas is compiled;
``H^d !x`` is fine, ``!(phi)`` is rejected.
"""

from __future__ import annotations

from functools import reduce
from itertools import combinations

from .twtl import (_BINARY, _LEVEL, And, Concat, Formula, Hold, Not, Or, Within, Word,
                   propositions, time_bound, UnknownPropositionError)


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


_TRUE = object()     # the residual of a satisfied formula
_FALSE = object()    # the residual of a violated one


class _Residuals:
    """The residuals of one compilation, one node per structure.

    A node's key is its type, its plain fields and its children's ids.
    ``text`` maps a node's id to its canonical text, which orders the operands
    of And and Or and annotates the automaton's states.  A node's key is looked
    up first; only a new node is built, and its text assembled from its
    children's stored texts, the way ``format_formula`` prints it.  ``bound`` keeps
    the time bound of each node a window was asked about.
    ``bit`` maps each proposition to its bit in a label mask, and ``bits`` a
    node's id to the bits its progression reads: a hold's own, a concatenation's
    left operand's (the right one waits until the left is done), and the OR of
    the children's otherwise.  Progression is memoized on those bits of a label.
    """

    def __init__(self, bit):
        self.bit = bit
        self._nodes = {}
        self._progressed = {}
        self.text = {id(_TRUE): "TRUE", id(_FALSE): "FALSE"}
        self.bits = {}
        self.bound = {}

    def _made(self, key, node, text, bits):
        self._nodes[key] = node
        self.text[id(node)] = text
        self.bits[id(node)] = bits
        return node

    def hold(self, duration, prop, negated):
        key = (Hold, duration, prop, negated)
        node = self._nodes.get(key)
        if node is None:
            body = "TRUE" if prop is None else ("!" + prop if negated else prop)
            node = self._made(key, Hold(duration, prop, negated), f"H^{duration} {body}",
                              self.bit.get(prop, 0))
        return node

    def _link(self, cls, left, right, bits):
        """The chain link ``left op right``.  An operand of a looser level is parenthesized;
        a canonical chain's left operand is never of the link's type, so nothing else is."""
        key = (cls, id(left), id(right))
        node = self._nodes.get(key)
        if node is None:
            level = _LEVEL[cls]
            text = f"{self._operand(left, level)} {_BINARY[level][1]} {self._operand(right, level)}"
            node = self._made(key, cls(left, right), text, bits)
        return node

    def _operand(self, node, level):
        text = self.text[id(node)]
        return f"({text})" if _LEVEL.get(type(node), level) < level else text

    def join(self, cls, items):
        """Flat, deduplicated, text-ordered And or Or chain of ``items``."""
        unit, zero = (_TRUE, _FALSE) if cls is And else (_FALSE, _TRUE)
        unique = {}
        for item in items:
            if item is zero:
                return zero
            if item is unit:
                continue
            while isinstance(item, cls):    # canonical, so only the right spine nests
                unique[id(item.left)] = item.left
                item = item.right
            unique[id(item)] = item
        if len(unique) < 2:
            return next(iter(unique.values()), unit)
        ordered = sorted(unique.values(), key=lambda node: self.text[id(node)])
        bits = self.bits
        node = ordered[-1]
        for item in reversed(ordered[:-1]):
            node = self._link(cls, item, node, bits[id(item)] | bits[id(node)])
        return node

    def concat(self, left, right):
        if left is _FALSE or right is _FALSE:
            return _FALSE
        if left is _TRUE:
            return right
        if right is _TRUE:
            return left
        if isinstance(left, Concat):
            left, right = left.left, self.concat(left.right, right)
        return self._link(Concat, left, right, self.bits[id(left)])

    def within(self, child, low, high):
        key = (Within, id(child), low, high)
        node = self._nodes.get(key)
        if node is None:
            if child is not _FALSE and id(child) not in self.bound:
                self.bound[id(child)] = time_bound(child)
            if child is _FALSE or high < low or self.bound[id(child)] > high - low:
                return _FALSE
            node = self._made(key, Within(child, low, high), f"[{self.text[id(child)]}]^[{low},{high}]",
                              self.bits[id(child)])
        return node

    def canonical(self, node):
        """The node of ``node``'s canonical shape."""
        if isinstance(node, Hold):
            return self.hold(node.duration, node.prop, node.negated)
        if isinstance(node, (And, Or)):
            return self.join(type(node), [self.canonical(node.left), self.canonical(node.right)])
        if isinstance(node, Concat):
            return self.concat(self.canonical(node.left), self.canonical(node.right))
        if isinstance(node, Within):
            return self.within(self.canonical(node.child), node.low, node.high)
        if isinstance(node, Not):
            raise UnsupportedConstructError(
                "negation of compound formulas is not supported by the automaton "
                "compiler; use H^d !x for negated propositions")
        raise TypeError(f"not a formula node: {node!r}")

    def progress(self, node, mask):
        """Residual after observing the label whose propositions set the bits of ``mask``."""
        at = id(node)
        key = (at, mask & self.bits[at])
        done = self._progressed.get(key)
        if done is None:
            done = self._progressed[key] = self._progress(node, mask)
        return done

    def _progress(self, node, mask):
        if isinstance(node, Hold):
            if node.prop is not None and bool(mask & self.bit[node.prop]) == node.negated:
                return _FALSE
            if node.duration == 0:
                return _TRUE
            return self.hold(node.duration - 1, node.prop, node.negated)
        if isinstance(node, (And, Or)):
            return self.join(type(node), [self.progress(node.left, mask),
                                          self.progress(node.right, mask)])
        if isinstance(node, Concat):
            left = self.progress(node.left, mask)
            if left is _TRUE:
                return node.right
            return self.concat(left, node.right)
        if isinstance(node, Within):
            if node.low > 0:
                return self.within(node.child, node.low - 1, node.high - 1)
            started = self.progress(node.child, mask)
            delayed = self.within(node.child, 0, node.high - 1) if node.high >= 1 else _FALSE
            return self.join(Or, [started, delayed])
        raise TypeError(f"not a formula node: {node!r}")


class TotalAutomaton:
    """Deterministic automaton with a total transition function.

    States are integers; ``annotations`` maps each state to the canonical
    residual it stands for.  The accepting state self-loops on every symbol
    and the trash state is absorbing; the trash state exists even when it is
    unreachable so that downstream constructions can rely on it.
    ``decided`` maps the states that decide the formula to their worth, trash 0.0 and
    the accepting state 1.0; at a horizon the rest count as trash (``decided.get(q, 0.0)``).
    ``table[q][mask]`` is q's successor on the symbols numbered ``mask``
    (:meth:`symbol_mask`: ``bit[name]`` for each proposition the formula uses).
    """

    def __init__(self, props, initial, accepting, trash, annotations,
                 bit, table, reachable):
        self.props = tuple(props)
        self.initial = initial
        self.accepting = frozenset(accepting)
        self.trash = trash
        self.decided = {trash: 0.0, **dict.fromkeys(self.accepting, 1.0)}
        self.annotations = dict(annotations)
        self.n_states = len(annotations)
        self.reachable = frozenset(reachable)
        self.table = table
        self._bit = bit
        self._masks = {}

    def symbol_mask(self, sym):
        """The column of ``table`` that the label set ``sym`` selects."""
        sym = frozenset(sym)
        mask = self._masks.get(sym)
        if mask is None:
            extra = sym - frozenset(self.props)
            if extra:
                raise UnknownSymbolError(extra)
            mask = self._masks[sym] = sum(self._bit.get(name, 0) for name in sym)
        return mask

    def step(self, q, sym):
        return self.table[q][self.symbol_mask(sym)]

    def run(self, word: Word) -> int:
        return reduce(self.step, word, self.initial)

    def alphabet(self):
        """All label sets over the declared propositions."""
        syms = []
        for r in range(len(self.props) + 1):
            for combo in combinations(self.props, r):
                syms.append(frozenset(combo))
        return syms


MAX_STATES = 100000     # compile_formula raises StateExplosionError beyond this many states


def compile_formula(formula: Formula, alphabet) -> TotalAutomaton:
    """Compile into a total automaton over ``2**len(alphabet)`` symbols."""
    try:
        return _compile(formula, alphabet)
    except RecursionError:      # each pass over the formula recurses once per level
        raise AutomatonError("formula is nested too deeply to compile") from None


def _compile(formula, alphabet):
    props = tuple(sorted(frozenset(alphabet)))
    used = propositions(formula)
    missing = used - frozenset(props)
    if missing:
        raise UnknownPropositionError(sorted(missing)[0])
    bit = {name: 1 << i for i, name in enumerate(sorted(used))}
    width = 1 << len(bit)

    residuals = _Residuals(bit)
    nodes = []      # nodes[q] is state q's residual
    ids = {}

    def intern(node):
        state = ids.get(id(node))
        if state is None:
            state = ids[id(node)] = len(nodes)
            nodes.append(node)
            if len(nodes) > MAX_STATES:
                raise StateExplosionError(f"more than {MAX_STATES} automaton states")
        return state

    # States are numbered as the walk finds them and their rows filled in that
    # order, so the walk ends with exactly the states reachable from the initial one.
    initial = intern(residuals.canonical(formula))
    table = []
    while len(table) < len(nodes):
        node = nodes[len(table)]
        if node is _TRUE or node is _FALSE:
            table.append([len(table)] * width)
        else:
            table.append([intern(residuals.progress(node, mask)) for mask in range(width)])
    reachable = range(len(nodes))

    # The trash state is materialized unconditionally; the accepting state
    # only exists when some word can complete the formula.
    trash = intern(_FALSE)
    if len(table) < len(nodes):
        table.append([trash] * width)
    accepting = frozenset([ids[id(_TRUE)]]) if id(_TRUE) in ids else frozenset()
    annotations = {q: residuals.text[id(node)] for q, node in enumerate(nodes)}
    return TotalAutomaton(props, initial, accepting, trash, annotations, bit, table, reachable)


def accepts(automaton: TotalAutomaton, word: Word) -> bool:
    return automaton.run(word) in automaton.accepting
