"""Tests for finite filtered spaces, conditional expectation, and stopping."""

import numpy as np
import pytest

from semimart.doob import restrict_to_level
from semimart.generators import GeneratorSpec, _empirical_labels, generate

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
    check_stopping_time,
    first_hitting_time,
    stop_process,
)
from helpers import binary_tree_space, build_binary_tree, conditional_expectation
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


class TestCellMasses:
    """`cell_average` computes each time's cell masses once."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_kept_masses_give_the_bits_of_the_uncached_expression(self, seed):
        rng = np.random.default_rng(seed)
        space = random_space(rng)  # non-uniform dyadic probabilities
        for _ in range(2):  # the first pass fills the cache, the second reads it
            for j in range(space.grid.n_times):
                x = rng.standard_normal(space.n_atoms) * 10.0 ** rng.integers(-8, 9)
                lab = space.labels[j].astype(np.intp)
                want = (np.bincount(lab, weights=space.probs * x) / np.bincount(lab, weights=space.probs))[lab]
                assert space.cell_average(x, j).view(np.uint64).tolist() == want.view(np.uint64).tolist()

    def test_masses_are_kept_for_partitions_of_at_most_half_the_atoms(self):
        space = binary_tree_space(2)  # 16 atoms; 2 ** j cells at time j
        x = np.arange(16.0)
        for j in range(space.grid.n_times):
            space.cell_average(x, j)
        assert sorted(space._masses) == [0, 1, 2, 3]
        assert [m.size for _, m in sorted(space._masses.items())] == [1, 2, 4, 8]

    def test_a_cell_without_mass_is_refused_on_every_call(self):
        # the labels at time 1 skip the id 1, a cell that holds no atom
        labels = np.array([[0, 0, 0, 0], [0, 0, 2, 2], [0, 1, 2, 3]])
        space = FilteredSpace(DyadicGrid(1), np.full(4, 0.25), labels)
        for _ in range(2):
            with pytest.raises(InvariantViolation, match="zero probability"):
                space.cell_average(np.ones(4), 1)


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

    def test_min_with_a_later_time_is_the_time_itself(self):
        space, S = canonical_walk(2)
        a = first_hitting_time(S, S.values >= 0.5)
        never, start = StoppingTime.constant(space, np.inf), StoppingTime.constant(space, 0.0)
        assert a.min_with(never) is a and never.min_with(a) is a
        assert a.min_with(start) is start and start.min_with(a) is start


class TestFrozenInputs:
    """Constructors share data no one can write and copy everything else."""

    def test_caller_writes_never_reach_the_object(self):
        space, S = canonical_walk(2)
        values = S.values.copy()
        idx = np.full(space.n_atoms, 2)
        base = np.array([3])
        view = idx.copy()[:]
        view.setflags(write=False)  # read-only, but its base is still writeable
        P = AdaptedProcess(space, values)
        taus = [
            StoppingTime(space, idx),
            StoppingTime(space, view),
            StoppingTime(space, np.broadcast_to(base, idx.shape)),
        ]
        values[:] = 7.0
        idx[:] = 0
        view.base[:] = 0
        base[0] = 0
        assert np.array_equal(P.values, S.values)
        assert [t.index.tolist() for t in taus] == [[2] * space.n_atoms] * 2 + [[3] * space.n_atoms]
        assert not P.values.flags.writeable and all(not t.index.flags.writeable for t in taus)

    def test_frozen_data_is_shared(self):
        space, S = canonical_walk(2)
        assert AdaptedProcess(space, S.values).values is S.values
        tail = AdaptedProcess(space, S.values[:, 1:], S.time_index[1:])
        assert np.shares_memory(tail.values, S.values)
        grid = np.array([0, 2, 4])
        grid.setflags(write=False)
        tau = StoppingTime(space, np.broadcast_to(grid[1:2], (space.n_atoms,)))
        assert tau.index.strides == (0,) and np.shares_memory(tau.index, grid)

    def test_labels_are_int32(self):
        """Labels are stored as int32; a caller's int64 partition is converted
        and a caller's writeable int32 partition is still copied, while the
        frozen labels an ensemble source builds are shared."""
        tree = binary_tree_space(2)  # built from int64 labels
        assert tree.labels.dtype == np.int32 and not tree.labels.flags.writeable
        labels = tree.labels.copy()
        space = FilteredSpace(tree.grid, tree.probs, labels)
        labels[:] = 0
        assert space.labels.dtype == np.int32 and np.array_equal(space.labels, tree.labels)
        src = generate(GeneratorSpec(kind="rl_fractional", level=3, hurst=0.75, mode="ensemble",
                                     paths=32, seed=2))
        fresh = _empirical_labels(src.xi)
        assert FilteredSpace(DyadicGrid(3), src.probs, fresh).labels is fresh

    def test_labels_past_int32_are_refused_not_wrapped(self):
        tree = binary_tree_space(1)
        with pytest.raises(ParameterError, match="int32"):
            FilteredSpace(tree.grid, tree.probs, tree.labels.astype(np.int64) + 2 ** 32)


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


    def test_a_time_that_stops_no_atom_shares_the_process(self):
        space, S = canonical_walk(2)
        last = space.grid.n_times - 1
        coarse = restrict_to_level(S, 1)
        head = AdaptedProcess(space, S.values[:, :3], S.time_index[:3])
        mixed = np.where(space.innovations[:, 0] > 0, last, space.grid.n_times)
        assert stop_process(S, StoppingTime.constant(space, np.inf)) is S
        assert stop_process(S, StoppingTime.constant(space, 1.0)) is S
        assert stop_process(coarse, StoppingTime.constant(space, np.inf)) is coarse
        assert stop_process(coarse, StoppingTime.constant(space, 1.0)) is coarse
        assert stop_process(coarse, StoppingTime(space, mixed)) is coarse
        # the last sampled time of a process sampled up to t = 1/2 only
        assert stop_process(head, StoppingTime.constant(space, 0.5)) is head

    @pytest.mark.parametrize("seed", SEEDS)
    def test_a_time_that_stops_one_cell_early_copies_bit_for_bit(self, seed):
        rng = np.random.default_rng(seed)
        space = random_space(rng)
        S = AdaptedProcess(space, cell_values(rng, space.labels))
        idx = np.where(space.labels[1] == 0, 1, space.grid.n_times - 1)
        stopped = stop_process(S, StoppingTime(space, idx))
        expected = S.values.copy()
        expected[idx == 1, 1:] = S.values[idx == 1, 1:2]
        assert stopped is not S
        assert np.array_equal(stopped.values.view(np.uint64), expected.view(np.uint64))

    def test_a_non_stopping_time_at_the_end_is_rejected_before_sharing(self):
        # the final partition pairs atoms, so {tau <= 1} may not split a pair
        grid = DyadicGrid(1)
        labels = np.array([[0, 0, 0, 0], [0, 0, 1, 1], [0, 0, 1, 1]])
        space = FilteredSpace(grid, np.full(4, 0.25), labels)
        S = AdaptedProcess(space, np.array([[0.0, 1, 2], [0, 1, 2], [0, -1, -2], [0, -1, -2]]))
        last = grid.n_times - 1
        with pytest.raises(PreconditionError):
            stop_process(S, StoppingTime(space, np.array([last, grid.n_times, last, grid.n_times])))

    def test_a_time_past_the_last_sample_is_rejected_before_sharing(self):
        space, S = canonical_walk(2)
        head = AdaptedProcess(space, S.values[:, :3], S.time_index[:3])
        with pytest.raises(StructuralError, match="sample times"):
            stop_process(head, StoppingTime.constant(space, 1.0))

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

    def test_restrictions_keep_the_layout_of_their_gather(self):
        """A restriction is its gather, F-ordered and uncopied: a copy
        would own its data."""
        space, S = canonical_walk(3)
        for n in range(4):
            coarse = restrict_to_level(S, n)
            assert coarse.values.flags.f_contiguous and not coarse.values.flags.writeable
            assert coarse.values.base is not None and not coarse.values.base.flags.writeable
            assert np.array_equal(coarse.values, S.values[:, ::1 << (3 - n)])

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
