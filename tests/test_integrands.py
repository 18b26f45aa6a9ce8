"""Tests for simple trading strategies, their integrals, and step-function bounds."""

import numpy as np
import pytest

from semimart.errors import InvariantViolation, ParameterError
from semimart.integrands import (
    SimpleIntegrand,
    StrategySequence,
    integral_process,
    integrate,
    li_metric,
    vr_metric,
)
from semimart.space import (
    AdaptedProcess,
    DyadicGrid,
    FilteredSpace,
    StoppingTime,
    first_hitting_time,
    stop_process,
)
from helpers import (
    GridFunction,
    StepFunction,
    binary_tree_space,
    combine,
    constant_integrand,
    continuity_probe,
    evaluate,
    fl_statistic,
    step_integral,
    sum_by_parts_bound,
)

TOL = 1e-12


def canonical_walk(level):
    space = binary_tree_space(level)
    incr = space.innovations * (2.0 ** -level)
    values = np.concatenate(
        [np.zeros((space.n_atoms, 1)), np.cumsum(incr, axis=1)], axis=1
    )
    return space, AdaptedProcess(space, values)


def one_atom_line(level, slope=1.0):
    """Deterministic process S_t = slope * t on a single-atom space."""
    grid = DyadicGrid(level)
    space = FilteredSpace(grid, np.array([1.0]), np.zeros((grid.n_times, 1), dtype=int))
    return space, AdaptedProcess(space, slope * grid.times[None, :])


class TestIntegrate:
    """Terminal values of simple-strategy integrals."""

    def test_unit_position_gives_net_move(self):
        space, S = canonical_walk(1)
        H = constant_integrand(space, 1.0)
        got = integrate(H, S)
        assert got == pytest.approx(S.at(1.0) - S.at(0.0), abs=TOL)

    def test_first_move_sign_held_on_second_half(self):
        # hold xi_1 on (1/2, 1]: pays +1/2 exactly when both moves agree
        space, S = canonical_walk(1)
        weights = np.stack(
            [np.zeros(4), space.innovations[:, 0].astype(float)], axis=1
        )
        H = SimpleIntegrand.from_grid_mesh(space, [0, 1, 2], weights)
        got = integrate(H, S)
        assert got == pytest.approx([0.5, -0.5, -0.5, 0.5], abs=TOL)

    def test_zero_position_pays_nothing(self):
        space, S = canonical_walk(2)
        H = constant_integrand(space, 0.0)
        assert np.max(np.abs(integrate(H, S))) == 0.0

    def test_running_integral_is_adapted(self):
        space, S = canonical_walk(2)
        weights = np.stack(
            [np.ones(space.n_atoms), space.innovations[:, 1].astype(float)], axis=1
        )
        H = SimpleIntegrand.from_grid_mesh(space, [0, 2, 4], weights)
        assert integral_process(H, S).is_adapted()

    def test_bilinearity_in_the_integrand(self):
        space, S = canonical_walk(2)
        rng = np.random.default_rng(5)

        def predictable_weights():
            w = np.empty((space.n_atoms, 2))
            w[:, 0] = rng.normal()  # time-0 weight must be deterministic
            w[:, 1] = np.repeat(rng.normal(size=4), 4)  # constant on time-1/2 cells
            return w

        w1 = predictable_weights()
        w2 = predictable_weights()
        base = [0, 2, 4]
        H1 = SimpleIntegrand.from_grid_mesh(space, base, w1)
        H2 = SimpleIntegrand.from_grid_mesh(space, base, w2)
        mix = combine(H1, 2.0, H2, -3.0)
        direct = 2.0 * integrate(H1, S) - 3.0 * integrate(H2, S)
        assert integrate(mix, S) == pytest.approx(direct, abs=TOL)

    def test_stopping_compatibility(self):
        # trading S stopped at tau equals trading H 1_[0, tau] against S
        space, S = canonical_walk(2)
        tau = first_hitting_time(S, np.abs(S.values) >= 0.5)
        weights = np.stack(
            [np.ones(space.n_atoms), space.innovations[:, 0].astype(float)], axis=1
        )
        H = SimpleIntegrand.from_grid_mesh(space, [0, 2, 4], weights)
        lhs = integrate(H, stop_process(S, tau))
        rhs = integrate(H.truncate(tau), S)
        assert lhs == pytest.approx(rhs, abs=TOL)

    def test_weight_peeking_at_future_rejected(self):
        space, S = canonical_walk(1)
        weights = np.stack(
            [space.innovations[:, 1].astype(float), np.zeros(4)], axis=1
        )
        with pytest.raises(InvariantViolation):
            SimpleIntegrand.from_grid_mesh(space, [0, 1, 2], weights)

    def test_mesh_must_cover_the_horizon(self):
        space, _ = canonical_walk(1)
        with pytest.raises(ParameterError):
            SimpleIntegrand.from_grid_mesh(space, [0, 1], np.zeros((4, 1)))


class TestRiskAndSizeMetrics:
    """Drawdown and position-size functionals."""

    def test_unit_position_drawdown_on_walk(self):
        space, S = canonical_walk(1)
        H = constant_integrand(space, 1.0)
        assert vr_metric(H, S) == pytest.approx(1.0, abs=TOL)

    def test_drawdown_zero_when_integral_never_negative(self):
        space, S = one_atom_line(2)
        H = constant_integrand(space, 1.0)
        assert vr_metric(H, S) == 0.0

    def test_position_size_of_constant(self):
        space, _ = canonical_walk(1)
        assert li_metric(constant_integrand(space, 1.0)) == pytest.approx(1.0)
        assert li_metric(constant_integrand(space, 0.0)) == 0.0

    def test_position_size_takes_largest_weight(self):
        space, _ = canonical_walk(1)
        weights = np.array([[-0.5, 0.25]] * 4)
        H = SimpleIntegrand.from_grid_mesh(space, [0, 1, 2], weights)
        assert li_metric(H) == pytest.approx(0.5)


class TestWinProbability:
    """Exact probability of clearing a profit threshold."""

    def test_zero_strategies_never_win(self):
        space, S = canonical_walk(1)
        seq = StrategySequence([constant_integrand(space, 0.0)] * 3)
        assert fl_statistic(seq, S, 0.3) == pytest.approx([0.0, 0.0, 0.0])

    def test_unit_position_on_walk(self):
        space, S = canonical_walk(1)
        seq = StrategySequence([constant_integrand(space, 1.0)])
        assert fl_statistic(seq, S, 0.25) == pytest.approx([0.25])

    def test_deterministic_line_always_wins(self):
        space, S = one_atom_line(2)
        seq = StrategySequence([constant_integrand(space, 1.0)])
        assert fl_statistic(seq, S, 0.5) == pytest.approx([1.0])

    def test_threshold_must_be_positive(self):
        space, S = canonical_walk(1)
        seq = StrategySequence([constant_integrand(space, 1.0)])
        with pytest.raises(ParameterError):
            fl_statistic(seq, S, 0.0)

    def test_evaluate_fills_all_diagnostics(self):
        space, S = canonical_walk(1)
        seq = evaluate(StrategySequence(
            [constant_integrand(space, 1.0 / k) for k in (1, 2)]
        ), S, 0.25)
        assert seq.li == pytest.approx([1.0, 0.5])
        assert seq.vr == pytest.approx([1.0, 0.5])
        assert seq.fl == pytest.approx([0.25, 0.25])


class TestContinuityProbe:
    """Tail statistics along a vanishing-position sequence."""

    def test_shrinking_first_move_bets(self):
        space, S = canonical_walk(1)
        xi1 = space.innovations[:, 0].astype(float)
        elements = []
        for k in range(1, 7):
            weights = np.stack([np.zeros(4), xi1 / k], axis=1)
            elements.append(SimpleIntegrand.from_grid_mesh(space, [0, 1, 2], weights))
        stats = continuity_probe(S, StrategySequence(elements), 0.2)
        assert stats == pytest.approx([1.0, 1.0, 0.0, 0.0, 0.0, 0.0])

    def test_warns_when_positions_do_not_vanish(self):
        space, S = canonical_walk(1)
        seq = StrategySequence([constant_integrand(space, 1.0)] * 4)
        with pytest.warns(UserWarning):
            continuity_probe(S, seq, 0.2)

    def test_delta_must_be_positive(self):
        space, S = canonical_walk(1)
        seq = StrategySequence([constant_integrand(space, 0.5)])
        with pytest.raises(ParameterError):
            continuity_probe(S, seq, -0.1)


class TestStepIntegral:
    """Pathwise integrals of left-open step functions."""

    def test_unit_step_gives_net_move(self):
        f = StepFunction(np.array([0.0, 1.0]), np.array([1.0]))
        g = GridFunction(np.array([0.0, 0.5, 1.0]), np.array([0.3, -0.2, 0.7]))
        assert step_integral(f, g, 1.0) == pytest.approx(0.4, abs=TOL)
        assert step_integral(f, g, 0.5) == pytest.approx(-0.5, abs=TOL)

    def test_two_piece_step_against_tent(self):
        f = StepFunction(np.array([0.0, 0.5, 1.0]), np.array([1.0, 2.0]))
        g = GridFunction(np.array([0.0, 0.5, 1.0]), np.array([0.0, 1.0, 0.0]))
        assert step_integral(f, g, 0.5) == pytest.approx(1.0, abs=TOL)
        assert step_integral(f, g, 1.0) == pytest.approx(-1.0, abs=TOL)

    def test_zero_step_integrates_to_zero(self):
        f = StepFunction(np.array([0.0, 1.0]), np.array([0.0]))
        g = GridFunction(np.array([0.0, 0.25, 1.0]), np.array([1.0, 5.0, -2.0]))
        assert step_integral(f, g, 1.0) == 0.0


class TestSummationByParts:
    """Two-sided bound on partition sums of products."""

    def test_tent_example_values(self):
        f = StepFunction(np.array([0.0, 0.5, 1.0]), np.array([1.0, 2.0]))
        g = GridFunction(np.array([0.0, 0.5, 1.0]), np.array([0.0, 1.0, 0.0]))
        lhs, rhs = sum_by_parts_bound(f, g, np.array([0.0, 0.5, 1.0]))
        assert lhs == pytest.approx(3.0, abs=TOL)
        assert rhs == pytest.approx(6.0, abs=TOL)

    def test_constant_step_factor(self):
        f = StepFunction(np.array([0.0, 1.0]), np.array([2.0]))
        g = GridFunction(np.array([0.0, 0.5, 1.0]), np.array([0.0, 1.0, -1.0]))
        lhs, rhs = sum_by_parts_bound(f, g, np.array([0.0, 0.5, 1.0]))
        # constant f: the sum telescopes against g's increments only
        assert lhs <= 2.0 * (abs(1.0) + abs(-2.0)) + TOL
        assert lhs <= rhs + 1e-10

    def test_constant_path_gives_zero_sum(self):
        f = StepFunction(np.array([0.0, 0.25, 1.0]), np.array([-1.0, 3.0]))
        g = GridFunction(np.array([0.0, 0.25, 0.5, 1.0]), np.full(4, 0.8))
        lhs, _ = sum_by_parts_bound(f, g, np.array([0.0, 0.25, 0.5, 1.0]))
        assert lhs == pytest.approx(0.0, abs=TOL)

    def test_randomized_triples_never_violate(self):
        rng = np.random.default_rng(20240817)
        for _ in range(1000):
            n_breaks = int(rng.integers(1, 5))
            inner = np.sort(rng.uniform(0.05, 0.95, size=n_breaks))
            breaks = np.unique(np.concatenate([[0.0], inner, [1.0]]))
            fvals = rng.normal(scale=2.0, size=breaks.size - 1)
            extra = rng.uniform(0.0, 1.0, size=int(rng.integers(1, 6)))
            times = np.unique(np.concatenate([breaks, extra, [0.0, 1.0]]))
            gvals = rng.normal(scale=3.0, size=times.size)
            take = rng.random(times.size) < 0.7
            take[0] = take[-1] = True
            partition = times[take]
            f = StepFunction(breaks, fvals)
            g = GridFunction(times, gvals)
            lhs, rhs = sum_by_parts_bound(f, g, partition)
            assert lhs <= rhs + 1e-10
