"""Grid environments with overestimated action uncertainty.

Cells are (x, y) with (0, 0) at the bottom-left.  Nine actions: the eight
compass directions plus Stay.  A directional action succeeds with probability
1 - eps_real and otherwise lands uniformly on one of the other feasible moves
(Stay included); Stay itself is deterministic.  The declared prior knowledge
is looser: intended moves carry [1 - eps, 1] and every unintended feasible
move [0, eps], with eps >= eps_real.

Moves off the grid or through a one-way door are removed from the cell's
action set entirely rather than remapped, and they are excluded from the
unintended alternatives as well.  Probabilities are assembled in exact
rational arithmetic before conversion to float.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .twtl import PROP_RE, parse_formula
from .mdp import LabeledIntervalMdp

ACTIONS = ("N", "NE", "E", "SE", "S", "SW", "W", "NW", "Stay")
MOVES = {
    "N": (0, 1), "NE": (1, 1), "E": (1, 0), "SE": (1, -1),
    "S": (0, -1), "SW": (-1, -1), "W": (-1, 0), "NW": (-1, 1),
    "Stay": (0, 0),
}
ROW_ORDER = tuple(sorted(ACTIONS, key=lambda a: MOVES[a][::-1]))   # by (dy, dx): row-major targets


class GridError(Exception):
    pass


@dataclass
class GridSpec:
    width: int
    height: int
    real_uncertainty: float
    assumed_uncertainty: float
    # keyed by cell (x, y): its propositions, bonus per occupied step, forbidden actions
    labels: dict[tuple[int, int], frozenset[str]] = field(default_factory=dict)
    reward_cells: dict[tuple[int, int], float] = field(default_factory=dict)
    one_way_doors: dict[tuple[int, int], frozenset[str]] = field(default_factory=dict)

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise GridError("grid dimensions must be positive")
        if not (0.0 <= self.real_uncertainty < 1.0):
            raise GridError("real uncertainty must lie in [0, 1)")
        if self.assumed_uncertainty < self.real_uncertainty:
            raise GridError("assumed uncertainty must dominate the real uncertainty")
        if self.assumed_uncertainty > 1.0:
            raise GridError("assumed uncertainty must be at most 1")
        for cell in list(self.labels) + list(self.reward_cells) + list(self.one_way_doors):
            if not self.in_bounds(cell):
                raise GridError(f"cell {cell} is outside the {self.width}x{self.height} grid")
        for cell, name in sorted((cell, name) for cell, props in self.labels.items() for name in props):
            if not PROP_RE.match(name) or name == "TRUE":
                raise GridError(f"invalid proposition name {name!r} at cell {cell}")
        for cell, forbidden in self.one_way_doors.items():
            for action in sorted(forbidden):
                if action not in MOVES or action == "Stay":
                    raise GridError(f"the door at cell {cell} cannot forbid {action!r}")

    def in_bounds(self, cell):
        x, y = cell
        return 0 <= x < self.width and 0 <= y < self.height

    def feasible_moves(self, cell):
        """Actions usable at the cell: on-grid targets not blocked by a door."""
        forbidden = self.one_way_doors.get(cell, frozenset())
        moves = []
        for a in ACTIONS:
            if a in forbidden:
                continue
            dx, dy = MOVES[a]
            if self.in_bounds((cell[0] + dx, cell[1] + dy)):
                moves.append(a)
        return tuple(moves)

    def target(self, cell, action):
        dx, dy = MOVES[action]
        return (cell[0] + dx, cell[1] + dy)

    def alphabet(self):
        props = set()
        for values in self.labels.values():
            props.update(values)
        return frozenset(props)


def build_grid_mdp(spec: GridSpec) -> LabeledIntervalMdp:
    """Interval MDP over grid cells with exact true dynamics inside the bounds, one row per
    (cell, action) over the targets of all the cell's feasible moves in ``ROW_ORDER``."""
    eps_real = Fraction(spec.real_uncertainty).limit_denominator(10 ** 9)
    eps = spec.assumed_uncertainty
    p_intended = float(1 - eps_real)
    shares = [float(eps_real / n) if n else 0.0 for n in range(len(ACTIONS))]
    states = [(x, y) for y in range(spec.height) for x in range(spec.width)]
    labels = {cell: frozenset(spec.labels.get(cell, ())) for cell in states}
    rows = {}
    enabled = {}
    for cell in states:
        moves = enabled[cell] = spec.feasible_moves(cell)
        share = shares[len(moves) - 1]
        targets = [(b, spec.target(cell, b)) for b in ROW_ORDER if b in moves]
        # per move: its target's entry as an alternative and as the intended move
        entries = [(b, (s2, 0.0, eps, share), (s2, 1.0 - eps, 1.0, p_intended)) for b, s2 in targets]
        for a in moves:
            if a == "Stay":
                rows[(cell, a)] = ((cell, 1.0, 1.0, 1.0),)
            else:
                rows[(cell, a)] = tuple(on if b == a else off for b, off, on in entries)

    rewards = {(cell, a): r for cell, r in spec.reward_cells.items() for a in enabled[cell]}
    return LabeledIntervalMdp(states, ACTIONS, labels, rows, rewards, enabled)


# Canonical six-by-six pickup-and-delivery layout.  The coordinates, door
# placement, and reward band are fixed constants of this package, chosen so
# the worst-case bounds stay workable across the documented uncertainty
# sweep; they are configuration, not derived quantities.
CASE_STUDY_FORMULA = ("[H^1 P]^[0,8] . [H^1 D1]^[0,6] . "
                      "([H^1 D2]^[0,6] | [H^1 D3]^[0,6]) . [H^1 Base]^[0,12]")
CASE_STUDY_PROPS = ("Base", "D1", "D2", "D3", "P")

_CASE_LABELS = {
    (2, 2): ("P",),
    (3, 3): ("D1",),
    (4, 4): ("D2",),
    (4, 2): ("D3",),
    (1, 3): ("Base",),
}
_CASE_DOORS = {
    # one-way door on the edge below P: enter northward only, never back down
    (2, 1): ("NE", "NW"),
    (2, 2): ("S", "SE", "SW"),
}
_CASE_REWARDS = {
    (3, 1): 2.0,
    (4, 1): 4.0,
    (4, 2): 6.0,
    (4, 3): 10.0,
}


def canonical_case_study(assumed_uncertainty=0.08):
    """The packaged 6x6 pickup-and-delivery scenario and its constraint."""
    spec = GridSpec(
        width=6,
        height=6,
        real_uncertainty=0.03,
        assumed_uncertainty=assumed_uncertainty,
        labels={cell: frozenset(props) for cell, props in _CASE_LABELS.items()},
        reward_cells=dict(_CASE_REWARDS),
        one_way_doors={cell: frozenset(acts) for cell, acts in _CASE_DOORS.items()},
    )
    formula = parse_formula(CASE_STUDY_FORMULA, CASE_STUDY_PROPS)
    return spec, formula


def render_ascii(spec: GridSpec) -> str:
    """Map with labels, reward shading (., :, *, #; -- for a negative reward) and door markers."""
    rows = []
    shades = " .:*#"
    max_reward = max(spec.reward_cells.values(), default=0.0)
    for y in range(spec.height - 1, -1, -1):
        cells = []
        for x in range(spec.width):
            cell = (x, y)
            props = sorted(spec.labels.get(cell, ()))
            if props:
                text = props[0][:4]
            elif spec.reward_cells.get(cell, 0.0) < 0:
                text = "--"
            elif cell in spec.reward_cells and max_reward > 0:
                level = spec.reward_cells[cell] / max_reward
                text = shades[min(4, 1 + int(level * 3.999))] * 2
            else:
                text = ""
            if cell in spec.one_way_doors:
                text = "=" + text
            cells.append(text.center(4))
        rows.append("|" + "|".join(cells) + "|")
    sep = "+" + "+".join(["-" * 4] * spec.width) + "+"
    lines = [sep]
    for row in rows:
        lines.append(row)
        lines.append(sep)
    return "\n".join(lines)
