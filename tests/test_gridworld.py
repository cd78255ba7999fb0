import json
import math
import random
from fractions import Fraction

import pytest

from twtlshield.cli import _as_json, load_config
from twtlshield.gridworld import (ACTIONS, CASE_STUDY_PROPS, GridError, GridSpec,
                                  build_grid_mdp, canonical_case_study, render_ascii)
from twtlshield.twtl import time_bound
from conftest import law, model, sample_next, signed_grid


def plain_grid(eps_real=0.03, eps=0.08):
    return GridSpec(width=6, height=6, real_uncertainty=eps_real, assumed_uncertainty=eps)


class TestDynamics:
    def test_interior_cell_split(self):
        m = build_grid_mdp(plain_grid())
        cell = (2, 2)
        row = {s2: p for (s, a, s2), p in law(m).items()
               if s == cell and a == "E"}
        assert row[(3, 2)] == pytest.approx(0.97, abs=1e-15)
        others = {s2: p for s2, p in row.items() if s2 != (3, 2)}
        assert len(others) == 8
        for p in others.values():
            assert p == pytest.approx(0.03 / 8, abs=1e-15)

    def test_stay_is_deterministic(self):
        m = build_grid_mdp(plain_grid())
        for cell in m.states:
            assert m.bounds[(cell, "Stay", cell)] == (1.0, 1.0)
            assert law(m)[(cell, "Stay", cell)] == 1.0
            assert len(m.support(cell, "Stay")) == 1

    def test_corner_cell_mass_conservation(self):
        m = build_grid_mdp(plain_grid())
        corner = (0, 0)
        # at a corner only E, NE, N and Stay are feasible
        assert set(m.enabled[corner]) == {"N", "NE", "E", "Stay"}
        for a in m.enabled[corner]:
            total = math.fsum(p for (s, a2, _), p in law(m).items()
                              if s == corner and a2 == a)
            assert abs(total - 1.0) <= 1e-15

    def test_mass_conservation_everywhere(self):
        m = build_grid_mdp(plain_grid())
        for cell in m.states:
            for a in m.enabled[cell]:
                total = math.fsum(p for (s, a2, _), p in law(m).items()
                                  if s == cell and a2 == a)
                assert abs(total - 1.0) <= 1e-15

    def test_bounds_shape(self):
        m = build_grid_mdp(plain_grid(0.03, 0.08))
        cell = (3, 3)
        intended = (4, 3)
        assert m.bounds[(cell, "E", intended)] == (1.0 - 0.08, 1.0)
        for s2, lo, hi, _ in m.support(cell, "E"):
            if s2 != intended:
                assert (lo, hi) == (0.0, 0.08)

    @pytest.mark.parametrize("eps", [0.03, 0.08, 0.13])
    def test_true_dynamics_inside_bounds_for_swept_eps(self, eps):
        m = build_grid_mdp(plain_grid(0.03, eps))
        assert m.validate() == []

    def test_conservative_prior_required(self):
        with pytest.raises(GridError):
            plain_grid(eps_real=0.08, eps=0.03)

    def test_assumed_uncertainty_at_most_one(self):
        assert build_grid_mdp(plain_grid(eps=1.0)).validate() == []
        with pytest.raises(GridError, match="at most 1"):
            plain_grid(eps=1.5)


def fraction_dynamics(spec):
    """True dynamics recomputed in ``Fraction`` arithmetic, one (cell, action) at a time."""
    eps_real = Fraction(spec.real_uncertainty).limit_denominator(10 ** 9)
    dynamics = {}
    for y in range(spec.height):
        for x in range(spec.width):
            cell = (x, y)
            moves = spec.feasible_moves(cell)
            for a in moves:
                if a == "Stay":
                    dynamics[(cell, a, cell)] = 1.0
                    continue
                others = [b for b in moves if b != a]
                dynamics[(cell, a, spec.target(cell, a))] = float(1 - eps_real)
                for b in others:
                    dynamics[(cell, a, spec.target(cell, b))] = float(eps_real / len(others))
    return dynamics


def declared_bounds(spec):
    """The declared intervals, one (cell, action) at a time: [1, 1] on Stay, otherwise
    [1 - eps, 1] on the intended move and [0, eps] on every other feasible move."""
    eps = spec.assumed_uncertainty
    bounds = {}
    for y in range(spec.height):
        for x in range(spec.width):
            cell = (x, y)
            moves = spec.feasible_moves(cell)
            for a in moves:
                if a == "Stay":
                    bounds[(cell, a, cell)] = (1.0, 1.0)
                    continue
                for b in moves:
                    bounds[(cell, a, spec.target(cell, b))] = (1.0 - eps, 1.0) if b == a else (0.0, eps)
    return bounds


def five_door_spec():
    """Doors that leave cells with at least five different numbers of feasible moves."""
    doors = {(1, 1): frozenset({"N"}), (2, 2): frozenset({"N", "E", "S"}),
             (3, 1): frozenset({"NE", "NW", "SE", "SW", "W"}), (0, 2): frozenset({"E"})}
    return GridSpec(width=5, height=4, real_uncertainty=0.07, assumed_uncertainty=0.1,
                    one_way_doors=doors)


class TestFractionShares:
    def test_case_study(self):
        spec, _ = canonical_case_study()
        assert law(build_grid_mdp(spec)) == fraction_dynamics(spec)

    def test_doors_vary_alternative_counts(self):
        spec = five_door_spec()
        counts = {len(spec.feasible_moves(cell)) for cell in
                  [(x, y) for y in range(4) for x in range(5)]}
        assert len(counts) >= 5
        assert law(build_grid_mdp(spec)) == fraction_dynamics(spec)


ROW_SPECS = {
    "case_study": lambda: canonical_case_study()[0],
    "five_doors": five_door_spec,
    "no_uncertainty": lambda: plain_grid(eps_real=0.0, eps=0.0),
    "eps_one": lambda: plain_grid(eps=1.0),
    "one_cell": lambda: GridSpec(width=1, height=1, real_uncertainty=0.03, assumed_uncertainty=0.08),
}


class TestRows:
    """The grid's rows against the edge dicts written out independently, through the adapter."""

    @pytest.mark.parametrize("name", list(ROW_SPECS))
    def test_rows_match_the_edge_reference(self, name):
        spec = ROW_SPECS[name]()
        m = build_grid_mdp(spec)
        order = {s: i for i, s in enumerate(m.states)}
        for row in m.rows.values():
            positions = [order[s2] for s2, _, _, _ in row]
            assert positions == sorted(set(positions))
        bounds, dynamics = declared_bounds(spec), fraction_dynamics(spec)
        reference = model(m.states, m.actions, m.labels, bounds, dynamics, enabled=m.enabled)
        assert m.rows == reference.rows
        assert m.bounds == bounds
        assert law(m) == dynamics
        assert m.validate() == []

    def test_zero_width_alternatives_are_outside_the_support(self):
        spec = ROW_SPECS["no_uncertainty"]()
        m = build_grid_mdp(spec)
        for (cell, a), row in m.rows.items():
            assert [s2 for s2, _, _, _ in m.support(cell, a)] == [spec.target(cell, a)]
            assert len(row) == (1 if a == "Stay" else len(m.enabled[cell]))


class TestDoors:
    def test_door_removes_actions(self):
        spec, _ = canonical_case_study()
        m = build_grid_mdp(spec)
        # below the pickup cell only the straight-north move crosses the door
        assert "NE" not in m.enabled[(2, 1)]
        assert "NW" not in m.enabled[(2, 1)]
        assert "N" in m.enabled[(2, 1)]
        # and the pickup cell never exits downward through it
        for a in ("S", "SE", "SW"):
            assert a not in m.enabled[(2, 2)]

    def test_no_unintended_transition_through_door(self):
        spec, _ = canonical_case_study()
        m = build_grid_mdp(spec)
        gate_targets = {s2 for (s, a, s2) in law(m)
                        if s == (2, 2) and law(m)[(s, a, s2)] > 0}
        assert not {(2, 1), (1, 1), (3, 1)} & gate_targets

    def test_stay_cannot_be_forbidden(self):
        with pytest.raises(GridError):
            GridSpec(width=3, height=3, real_uncertainty=0.0, assumed_uncertainty=0.1,
                     one_way_doors={(1, 1): frozenset({"Stay"})})

    def test_unknown_action_cannot_be_forbidden(self):
        # feasible_moves would skip a name it does not know, so the door would not exist
        with pytest.raises(GridError, match="cannot forbid 'north'"):
            GridSpec(width=3, height=3, real_uncertainty=0.0, assumed_uncertainty=0.1,
                     one_way_doors={(1, 1): frozenset({"north"})})


class TestCanonicalCaseStudy:
    def test_formula_time_bound(self):
        _, formula = canonical_case_study()
        assert time_bound(formula) == 35

    def test_labels_one_cell_each(self):
        spec, _ = canonical_case_study()
        seen = {}
        for cell, props in spec.labels.items():
            for prop in props:
                assert prop not in seen
                seen[prop] = cell
        assert set(seen) == set(CASE_STUDY_PROPS)

    def test_rewards_graded(self):
        spec, _ = canonical_case_study()
        values = sorted(spec.reward_cells.values())
        assert values[0] > 0
        assert len(set(values)) > 1

    def test_actions(self):
        assert ACTIONS == ("N", "NE", "E", "SE", "S", "SW", "W", "NW", "Stay")

    def test_uncertainty_override(self):
        spec, _ = canonical_case_study(assumed_uncertainty=0.13)
        assert spec.assumed_uncertainty == 0.13
        assert spec.real_uncertainty == 0.03


class TestSerialization:
    def test_json_round_trip(self):
        spec, _ = canonical_case_study()
        loaded = load_config(None, {"grid": json.loads(json.dumps(_as_json(spec)))}).grid
        assert loaded.labels == spec.labels
        assert loaded.reward_cells == spec.reward_cells
        assert loaded.one_way_doors == spec.one_way_doors
        a, b = build_grid_mdp(loaded), build_grid_mdp(spec)
        for attr in ("states", "labels", "bounds", "enabled"):
            assert getattr(a, attr) == getattr(b, attr), attr
        assert law(a) == law(b)

    def test_ascii_render(self):
        spec, _ = canonical_case_study()
        art = render_ascii(spec)
        lines = art.splitlines()
        assert len(lines) == 2 * spec.height + 1
        for prop in ("P", "D1", "D2", "D3", "Base"):
            assert prop[:4] in art
        assert "=" in art   # door marker

    def test_ascii_reward_shades(self):
        # the shade grows with the reward's share of the largest; a negative reward is "--"
        rewards = {(0, 0): 10.0, (1, 0): 6.0, (2, 0): 4.0, (3, 0): 0.0, (0, 1): -1.0,
                   (1, 1): -2.5, (2, 1): -10.0, (3, 1): -50.0}
        spec = GridSpec(4, 2, 0.0, 0.1, reward_cells=rewards)
        rows = [line.split("|")[1:-1] for line in render_ascii(spec).splitlines()[1::2]]
        assert rows == [[" -- "] * 4, [" ## ", " ** ", " :: ", " .. "]]
        assert render_ascii(GridSpec(2, 1, 0.0, 0.1, reward_cells={(0, 0): -3.0})) == \
            "+----+----+\n| -- |    |\n+----+----+"


class TestStep:
    def test_empirical_intended_rate(self):
        m = build_grid_mdp(plain_grid())
        rng = random.Random(0)
        hits = sum(sample_next(m, (2, 2), "N", rng) == (2, 3) for _ in range(20000))
        assert abs(hits / 20000 - 0.97) < 0.005

    def test_reward_on_occupancy(self):
        # one entry per enabled action of each reward cell, that cell's reward to the bit
        for spec in (canonical_case_study()[0], signed_grid()):
            m = build_grid_mdp(spec)
            assert set(m.rewards) == {(cell, a) for cell in spec.reward_cells
                                      for a in spec.feasible_moves(cell)}
            for (cell, a), r in m.rewards.items():
                want = spec.reward_cells[cell]
                assert r == want and math.copysign(1.0, r) == math.copysign(1.0, want)
