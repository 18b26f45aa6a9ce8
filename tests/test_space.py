"""Tests for finite filtered spaces, conditional expectation, and stopping."""

import numpy as np
import pytest

from semimart.doob import restrict_to_level

from semimart.errors import (
    InvariantViolation,
    ParameterError,
    PreconditionError,
    ResourceLimitError,
    StructuralError,
)
from semimart.space import (
    AdaptedProcess,
    DyadicGrid,
    FilteredSpace,
    StoppingTime,
    binary_tree_space,
    build_binary_tree,
    check_stopping_time,
    conditional_expectation,
    first_hitting_time,
    stop_process,
)
from test_integral_process import random_stop
from test_measurability import SEEDS, cell_values, random_space

TOL = 1e-12


def canonical_walk(level):
    """Symmetric random walk with +-2^(-level) steps on the full tree."""
    space = binary_tree_space(level)
    incr = space.innovations * (2.0 ** -level)
    values = np.concatenate(
        [np.zeros((space.n_atoms, 1)), np.cumsum(incr, axis=1)], axis=1
    )
    return space, AdaptedProcess(space, values)


class TestDyadicGrid:
    """Grid construction and time lookup."""

    def test_level_two_times(self):
        grid = DyadicGrid(2)
        assert grid.n_steps == 4
        assert grid.n_times == 5
        assert grid.times == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])

    def test_index_of_grid_point(self):
        grid = DyadicGrid(3)
        assert grid.index_of(0.375) == 3
        assert grid.index_of(1.0) == 8

    def test_index_of_off_grid_time_rejected(self):
        grid = DyadicGrid(1)
        with pytest.raises(ParameterError):
            grid.index_of(0.3)

    def test_negative_level_rejected(self):
        with pytest.raises(ParameterError):
            DyadicGrid(-1)


class TestBinaryTree:
    """Full binary-tree filtrations and path maps."""

    def test_level_one_atoms_and_probs(self):
        space = binary_tree_space(1)
        assert space.n_atoms == 4
        assert space.probs == pytest.approx([0.25, 0.25, 0.25, 0.25])
        assert space.grid.n_steps == 2

    def test_level_one_walk_paths(self):
        # map prefix -> sum(prefix)/2 gives the +-1/2 random walk
        space, S = build_binary_tree(1, lambda prefix: sum(prefix) / 2.0)
        expected = np.array(
            [
                [0.0, 0.5, 1.0],
                [0.0, 0.5, 0.0],
                [0.0, -0.5, 0.0],
                [0.0, -0.5, -1.0],
            ]
        )
        assert np.max(np.abs(S.values - expected)) <= TOL

    def test_level_zero_degenerate_tree(self):
        # one +-1 innovation: two atoms of probability 1/2 on the grid {0, 1}
        space = binary_tree_space(0)
        assert space.grid.n_times == 2
        assert space.n_atoms == 2
        assert space.probs == pytest.approx([0.5, 0.5])

    def test_level_two_map_zero_is_adapted(self):
        space, S = build_binary_tree(2, lambda prefix: 0.0)
        assert space.n_atoms == 16
        assert S.is_adapted()
        assert np.max(np.abs(S.values)) == 0.0

    def test_refining_partitions_enforced(self):
        grid = DyadicGrid(1)
        labels = np.array([[0, 0, 0, 0], [0, 0, 1, 1], [0, 1, 2, 3]])
        broken = labels.copy()
        broken[2] = [0, 0, 0, 1]  # cell {0, 1, 2} straddles two earlier cells
        probs = np.full(4, 0.25)
        FilteredSpace(grid, probs, labels)
        with pytest.raises(InvariantViolation):
            FilteredSpace(grid, probs, broken)

    def test_probabilities_must_sum_to_one(self):
        grid = DyadicGrid(1)
        labels = binary_tree_space(1).labels
        with pytest.raises(InvariantViolation):
            FilteredSpace(grid, np.full(4, 0.3), labels)

    def test_innovation_map_levels_beyond_cap_rejected(self):
        with pytest.raises(ResourceLimitError):
            binary_tree_space(7)


class TestConditionalExpectation:
    """Cell averaging against the filtration."""

    def test_terminal_given_half_is_current_value(self):
        space, S = canonical_walk(1)
        cond = conditional_expectation(space, S.at(1.0), 0.5)
        assert cond == pytest.approx(S.at(0.5), abs=TOL)

    def test_time_zero_gives_plain_mean(self):
        space, S = canonical_walk(1)
        rng = np.random.default_rng(3)
        x = rng.normal(size=space.n_atoms)
        cond = conditional_expectation(space, x, 0.0)
        assert cond == pytest.approx(np.full(4, space.expectation(x)), abs=TOL)

    def test_constant_is_fixed(self):
        space, _ = canonical_walk(2)
        x = np.full(space.n_atoms, 1.75)
        for t in space.grid.times:
            assert conditional_expectation(space, x, t) == pytest.approx(x, abs=TOL)

    def test_projection_idempotent(self):
        space, _ = canonical_walk(2)
        rng = np.random.default_rng(11)
        x = rng.normal(size=space.n_atoms)
        once = conditional_expectation(space, x, 0.5)
        twice = conditional_expectation(space, once, 0.5)
        assert np.max(np.abs(twice - once)) <= TOL

    def test_tower_property(self):
        space, _ = canonical_walk(2)
        rng = np.random.default_rng(17)
        x = rng.normal(size=space.n_atoms)
        inner = conditional_expectation(space, x, 0.75)
        outer = conditional_expectation(space, inner, 0.25)
        direct = conditional_expectation(space, x, 0.25)
        assert np.max(np.abs(outer - direct)) <= TOL

    def test_mean_preserved(self):
        space, _ = canonical_walk(2)
        rng = np.random.default_rng(23)
        x = rng.normal(size=space.n_atoms)
        for t in space.grid.times:
            cond = conditional_expectation(space, x, t)
            assert space.expectation(cond) == pytest.approx(
                space.expectation(x), abs=TOL
            )


class TestStoppingTimes:
    """Stopping-time checks and constructions."""

    def test_never_stopping_is_valid(self):
        space, _ = canonical_walk(1)
        tau = StoppingTime.constant(space, np.inf)
        assert check_stopping_time(tau)
        assert np.all(np.isinf(tau.times))
        assert tau.prob_finite() == 0.0

    def test_constant_grid_time_is_valid(self):
        space, _ = canonical_walk(1)
        for t in space.grid.times:
            assert check_stopping_time(StoppingTime.constant(space, t))

    def test_peeking_at_future_innovation_rejected(self):
        # tau = 1/2 exactly when the second innovation is +1: not observable yet
        space, _ = canonical_walk(1)
        idx = np.where(space.innovations[:, 1] > 0, 1, space.grid.n_times)
        tau = StoppingTime(space, idx)
        assert not check_stopping_time(tau)

    def test_first_hitting_time_is_valid(self):
        space, S = canonical_walk(2)
        tau = first_hitting_time(S, np.abs(S.values) >= 0.5)
        assert check_stopping_time(tau)

    def test_min_of_two_stopping_times(self):
        space, S = canonical_walk(2)
        a = first_hitting_time(S, S.values >= 0.5)
        b = StoppingTime.constant(space, 0.5)
        m = a.min_with(b)
        assert check_stopping_time(m)
        assert np.all(m.index <= a.index)
        assert np.all(m.index <= b.index)


class TestStopProcess:
    """Freezing a process at a stopping time."""

    def test_never_stopping_leaves_process(self):
        space, S = canonical_walk(1)
        tau = StoppingTime.constant(space, np.inf)
        assert np.array_equal(stop_process(S, tau).values, S.values)

    def test_stop_at_zero_freezes_start(self):
        space, S = canonical_walk(1)
        tau = StoppingTime.constant(space, 0.0)
        stopped = stop_process(S, tau)
        assert np.max(np.abs(stopped.values - S.values[:, :1])) <= TOL

    def test_stop_on_first_up_move(self):
        # stop at 1/2 on the first innovation +1, never otherwise
        space, S = canonical_walk(1)
        idx = np.where(space.innovations[:, 0] > 0, 1, space.grid.n_times)
        tau = StoppingTime(space, idx)
        assert check_stopping_time(tau)
        stopped = stop_process(S, tau)
        expected = np.array(
            [
                [0.0, 0.5, 0.5],
                [0.0, 0.5, 0.5],
                [0.0, -0.5, 0.0],
                [0.0, -0.5, -0.5 - 0.5],
            ]
        )
        assert np.max(np.abs(stopped.values - expected)) <= TOL

    def test_stopping_is_idempotent(self):
        space, S = canonical_walk(2)
        tau = first_hitting_time(S, S.values >= 0.5)
        once = stop_process(S, tau)
        twice = stop_process(once, tau)
        assert np.array_equal(once.values, twice.values)

    def test_stopped_process_is_adapted(self):
        space, S = canonical_walk(2)
        tau = first_hitting_time(S, np.abs(S.values) >= 0.5)
        assert stop_process(S, tau).is_adapted()

    def test_non_stopping_time_rejected(self):
        space, S = canonical_walk(1)
        idx = np.where(space.innovations[:, 1] > 0, 1, space.grid.n_times)
        with pytest.raises(PreconditionError):
            stop_process(S, StoppingTime(space, idx))


    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_per_atom_loop(self, seed):
        """S_{t ^ tau} per atom and sample time, with S sampled at a random
        coarser level of a random refining partition."""
        rng = np.random.default_rng(seed)
        space = random_space(rng)
        full = AdaptedProcess(space, cell_values(rng, space.labels))
        S = restrict_to_level(full, int(rng.integers(0, space.grid.level + 1)))
        tau = random_stop(rng, S)
        col = {int(g): c for c, g in enumerate(S.time_index)}
        expected = np.empty(S.values.shape)
        for a in range(space.n_atoms):
            for c, t in enumerate(S.time_index):
                expected[a, c] = S.values[a, col[min(int(t), int(tau.index[a]))]]
        stopped = stop_process(S, tau)
        assert np.array_equal(stopped.time_index, S.time_index)
        assert np.array_equal(stopped.values, expected)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_unsampled_time_rejected(self, seed):
        rng = np.random.default_rng(seed)
        space = random_space(rng)
        S = restrict_to_level(AdaptedProcess(space, cell_values(rng, space.labels)), 0)
        odd = int(rng.integers(0, space.grid.n_steps // 2)) * 2 + 1  # never on the level-0 grid
        with pytest.raises(StructuralError, match="sample times"):
            stop_process(S, StoppingTime(space, np.full(space.n_atoms, odd)))


class TestAdaptedProcess:
    """Process container arithmetic and restriction."""

    def test_is_adapted_detects_future_peeking(self):
        space, _ = canonical_walk(1)
        values = np.zeros((4, 3))
        values[0, 1] = 1.0  # differs inside a time-1/2 cell
        assert not AdaptedProcess(space, values).is_adapted()
        with pytest.raises(ParameterError):
            AdaptedProcess(space, np.full((4, 3), np.nan))

    def test_increments_and_sup_norm(self):
        space, S = canonical_walk(1)
        inc = S.increments()
        assert inc.shape == (4, 2)
        assert np.max(np.abs(np.abs(inc) - 0.5)) <= TOL
        assert S.sup_norm() == pytest.approx(1.0)

    def test_restrict_to_coarser_grid(self):
        space, S = canonical_walk(2)
        coarse = S.restrict(np.array([0, 2, 4]))
        assert coarse.values.shape == (space.n_atoms, 3)
        assert np.array_equal(coarse.values, S.values[:, [0, 2, 4]])

    def test_linear_combinations(self):
        space, S = canonical_walk(1)
        both = S + S.scale(-1.0)
        assert np.max(np.abs(both.values)) == 0.0
        diff = S - S
        assert np.max(np.abs(diff.values)) == 0.0

    def test_shift_by_atom_offsets(self):
        space, S = canonical_walk(1)
        off = np.arange(4, dtype=float)
        shifted = S.shift(off)
        assert np.max(np.abs(shifted.values - (S.values + off[:, None]))) <= TOL

    def test_first_hitting_time_indices(self):
        space, S = canonical_walk(1)
        tau = first_hitting_time(S, S.values >= 1.0)
        # only the up-up atom reaches 1, at the final time
        expect = np.array([2, space.grid.n_times, space.grid.n_times, space.grid.n_times])
        assert np.array_equal(tau.index, expect)
