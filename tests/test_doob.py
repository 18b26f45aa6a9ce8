"""Tests for grid decompositions, budget stops, and the per-level stage."""

import math
import re
import tracemalloc

import numpy as np
import pytest

import semimart.doob as doob
from semimart.doob import (
    DoobDecomposition,
    discrete_stage,
    doob_decompose,
    doob_maximal_stop,
    ladder,
    qv_strategy,
    restrict_to_level,
    sigma_stop,
    sign_strategy,
    tau_stop,
)
from semimart.errors import InvariantViolation, ParameterError, PreconditionError
from semimart.generators import GeneratorSpec, generate
from semimart.integrands import integrate
from semimart.space import (
    AdaptedProcess,
    DyadicGrid,
    FilteredSpace,
    StoppingTime,
)
from helpers import binary_tree_space, martingale_l2, quadratic_variation
from test_integral_process import assert_same_integrand

TOL = 1e-12
BOUND_TOL = 1e-10


def canonical_walk(level):
    space = binary_tree_space(level)
    incr = space.innovations * (2.0 ** -level)
    values = np.concatenate(
        [np.zeros((space.n_atoms, 1)), np.cumsum(incr, axis=1)], axis=1
    )
    return space, AdaptedProcess(space, values)


def drifted_walk(level, slope=1.0):
    """Walk plus deterministic drift slope * t."""
    space, S = canonical_walk(level)
    values = S.values + slope * space.times[None, :]
    return space, AdaptedProcess(space, values)


def one_atom_line(level, slope=1.0):
    grid = DyadicGrid(level)
    space = FilteredSpace(grid, np.array([1.0]), np.zeros((grid.n_times, 1), dtype=int))
    return space, AdaptedProcess(space, slope * grid.times[None, :])


def random_tree_process(level, seed, drift_scale=0.3):
    """Adapted process with random cell-wise increments plus drift."""
    space = binary_tree_space(level)
    rng = np.random.default_rng(seed)
    steps = space.grid.n_steps
    incr = space.innovations * rng.uniform(0.2, 1.0, size=(1, steps))
    incr = incr + drift_scale * rng.normal(size=(1, steps))
    values = np.concatenate(
        [np.zeros((space.n_atoms, 1)), np.cumsum(incr, axis=1)], axis=1
    )
    values = values / (np.abs(values).max() + 1e-9)
    return space, AdaptedProcess(space, values)


def rare_jump_walk(level, delta=0.05, drift=0.25):
    """A walk on its own filtration whose common path steps -delta, +delta,
    ... against a conditional drift of +drift, -drift, ...; the step's
    balancing jump to the far edge of [-1, 1] is rare and absorbing.

    Atom j < 2^level leaves the common path at step j + 1, the last atom
    never does.  Along the common path the sign strategy's martingale
    integral grows by delta + drift per step, so on a long enough grid
    the maximal-inequality cap of a drift-side witness bites there.
    """
    grid = DyadicGrid(level)
    N = grid.n_steps
    atoms = np.arange(N + 1)
    probs = np.empty(N + 1)
    values = np.zeros((N + 1, N + 1))
    labels = np.zeros((N + 1, N + 1), dtype=np.int64)
    stay, s = 1.0, 0.0
    for j in range(N):
        down = j % 2 == 0
        jump = 1.0 - s if down else 1.0 + s
        # the jump's odds that make the step's conditional mean +-drift
        q = (drift + delta) / (jump + delta)
        probs[j] = stay * q
        stay *= 1.0 - q
        values[j, j + 1:] = s + jump if down else s - jump
        s = s - delta if down else s + delta
        values[j + 1:, j + 1] = s
        labels[j + 1] = np.where(atoms <= j, atoms + 1, 0)
    probs[N] = stay
    space = FilteredSpace(grid, probs, labels)
    return space, AdaptedProcess(space, values)


class TestDoobDecompose:
    """Splitting S into a martingale and a predictable drift."""

    def test_symmetric_walk_has_no_drift(self):
        space, S = canonical_walk(1)
        D = doob_decompose(S, 1)
        assert np.max(np.abs(D.A.values)) <= TOL
        assert np.max(np.abs(D.M.values - S.values)) <= TOL

    def test_added_drift_lands_in_predictable_part(self):
        space, Sd = drifted_walk(1)
        D = doob_decompose(Sd, 1)
        assert D.A.values[0] == pytest.approx([0.0, 0.5, 1.0], abs=TOL)
        assert np.max(np.abs(D.A.values - space.times[None, :])) <= TOL

    def test_constant_process_is_its_own_martingale(self):
        space, _ = canonical_walk(1)
        S = AdaptedProcess(space, np.full((4, 3), 0.7))
        D = doob_decompose(S, 1)
        assert np.max(np.abs(D.A.values)) <= TOL
        assert np.max(np.abs(D.M.values - 0.7)) <= TOL

    def test_parts_recombine_exactly(self):
        for seed in range(4):
            space, S = random_tree_process(3, seed)
            for n in (1, 2, 3):
                D = doob_decompose(S, n)
                Sn = restrict_to_level(S, n)
                assert np.max(np.abs(D.M.values + D.A.values - Sn.values)) <= TOL

    def test_decomposition_is_unique(self):
        # moving any predictable mass out of A breaks the martingale part
        space, Sd = drifted_walk(2)
        D = doob_decompose(Sd, 2)
        bump = 0.1 * np.arange(D.A.n_times)[None, :] * np.ones((space.n_atoms, 1))
        bump[:, 0] = 0.0
        A2 = AdaptedProcess(space, D.A.values + bump, D.A.time_index)
        M2 = AdaptedProcess(space, D.M.values - bump, D.M.time_index)
        with pytest.raises(InvariantViolation):
            DoobDecomposition(level=2, M=M2, A=A2, qv=D.qv, tv=D.tv, m_l2=D.m_l2)

    def test_moving_martingale_mass_into_drift_rejected(self):
        space, Sd = drifted_walk(2)
        D = doob_decompose(Sd, 2)
        shift = D.M.values - D.M.values[:, :1]
        A2 = AdaptedProcess(space, D.A.values + shift, D.A.time_index)
        M2 = AdaptedProcess(space, D.M.values - shift, D.M.time_index)
        with pytest.raises(InvariantViolation):
            DoobDecomposition(level=2, M=M2, A=A2, qv=D.qv, tv=D.tv, m_l2=D.m_l2)

    def test_level_above_grid_rejected(self):
        space, S = canonical_walk(2)
        with pytest.raises(ParameterError):
            doob_decompose(S, 5)

    def test_supplied_increment_decomposition(self):
        space, Sd = drifted_walk(2)
        dA = np.full((space.n_atoms, 4), 0.25)
        D = doob_decompose(Sd, 2, dA)
        ref = doob_decompose(Sd, 2)
        assert D.analytic and not ref.analytic
        assert np.max(np.abs(D.A.values - ref.A.values)) <= TOL

    @pytest.mark.parametrize("block_cells", [1, 9 * 5, doob.IDENT_BLOCK_CELLS])
    @pytest.mark.parametrize("seed", range(3))
    def test_identity_check_in_blocks_reports_the_whole_maximum(self, monkeypatch, seed, block_cells):
        """With every deviation refused, the message carries max |M + A - S|
        over all atoms, whatever the block size."""
        space, S = random_tree_process(3, seed)
        D = doob_decompose(S, 3)
        want = np.abs(D.M.values + D.A.values - restrict_to_level(S, 3).values).max()
        monkeypatch.setattr(doob, "IDENT_TOL", -1.0)
        monkeypatch.setattr(doob, "IDENT_BLOCK_CELLS", block_cells)
        with pytest.raises(InvariantViolation, match=rf"^M \+ A differs from S by {re.escape(str(want))}$"):
            doob_decompose(S, 3)

    @pytest.mark.parametrize("shape", [(16, 3), (16, 5), (8, 4)], ids=lambda s: f"{s[0]}x{s[1]}")
    def test_supplied_increments_of_the_wrong_shape_rejected(self, shape):
        space, Sd = drifted_walk(2)
        with pytest.raises(ParameterError, match="one column per level-n step"):
            doob_decompose(Sd, 2, np.full(shape, 0.25))


class TestQuadraticVariation:
    """Squared-increment sums per level."""

    def test_walk_level_one(self):
        space, S = canonical_walk(1)
        assert quadratic_variation(S, 1) == pytest.approx(np.full(4, 0.5), abs=TOL)

    def test_constant_process(self):
        space, _ = canonical_walk(1)
        S = AdaptedProcess(space, np.full((4, 3), 1.3))
        assert quadratic_variation(S, 1) == pytest.approx(np.zeros(4), abs=TOL)

    def test_line_decays_geometrically(self):
        space, S = one_atom_line(3)
        for n in (1, 2, 3):
            assert quadratic_variation(S, n) == pytest.approx([2.0 ** -n], abs=TOL)


@pytest.mark.parametrize("mode", ["exact_tree", "ensemble"])
@pytest.mark.parametrize("kind", ["rademacher_bm", "drifted", "rl_fractional", "jump"])
def test_qv_is_the_last_running_sum_bit_for_bit(kind, mode):
    """The sigma ladder compares D.qv with c - 4, and sigma_stop compares
    the running squared-increment sums with the same threshold, so the two
    must agree bit for bit."""
    fields = dict(level=3) if mode == "exact_tree" else dict(level=6, paths=256, seed=4)
    S = generate(GeneratorSpec(kind=kind, mode=mode, **fields)).process
    for n in range(1, S.space.grid.level + 1):
        running = np.cumsum(restrict_to_level(S, n).increments() ** 2, axis=1)[:, -1]
        assert np.array_equal(doob_decompose(S, n).qv, running)


class TestQvStrategy:
    """The strategy whose gain reads off the quadratic variation."""

    def test_up_up_atom_value(self):
        space, S = canonical_walk(1)
        H = qv_strategy(S, 1)
        got = integrate(H, S)
        qv = quadratic_variation(S, 1)
        target = 0.5 * qv + 0.5 * (S.values[:, 0] ** 2 - S.values[:, -1] ** 2)
        assert got[0] == pytest.approx(-0.25, abs=TOL)
        assert target[0] == pytest.approx(-0.25, abs=TOL)

    def test_gain_identity_on_random_trees(self):
        for seed in range(5):
            space, S = random_tree_process(3, seed)
            for n in (1, 2, 3):
                H = qv_strategy(S, n)
                got = integrate(H, S)
                Sn = restrict_to_level(S, n)
                target = 0.5 * quadratic_variation(S, n) + 0.5 * (
                    Sn.values[:, 0] ** 2 - Sn.values[:, -1] ** 2
                )
                assert np.max(np.abs(got - target)) <= TOL

    def test_running_gain_never_below_minus_half(self):
        for seed in range(5):
            space, S = random_tree_process(3, seed + 50)
            from semimart.integrands import integral_process

            H = qv_strategy(S, 3)
            proc = integral_process(H, S)
            assert proc.values.min() >= -0.5 - TOL

    def test_unscaled_process_rejected(self):
        space, S = canonical_walk(1)
        big = S.scale(3.0)
        with pytest.raises(PreconditionError):
            qv_strategy(big, 1)


class TestBudgetStops:
    """First-passage times for the quadratic and drift budgets."""

    def test_sigma_large_budget_never_stops(self):
        space, S = canonical_walk(1)
        assert sigma_stop(S, 1, 10.0).prob_finite() == 0.0

    def test_sigma_tight_budget_stops_at_half(self):
        space, S = canonical_walk(1)
        sig = sigma_stop(S, 1, 4.25)
        assert np.all(sig.times == 0.5)

    def test_sigma_budget_at_or_below_offset_stops_immediately(self):
        space, S = canonical_walk(2)
        sig = sigma_stop(S, 2, 4.0)
        assert np.all(sig.times == 0.25)

    def test_tau_never_stops_without_drift(self):
        space, S = canonical_walk(1)
        D = doob_decompose(S, 1)
        assert tau_stop(D, 2.5).prob_finite() == 0.0

    def test_tau_stops_when_drift_variation_hits_budget(self):
        space, Sd = drifted_walk(2)
        D = doob_decompose(Sd, 2)
        assert np.all(tau_stop(D, 2.5).times == 0.5)

    def test_tau_budget_at_or_below_offset_stops_immediately(self):
        space, Sd = drifted_walk(2)
        D = doob_decompose(Sd, 2)
        assert np.all(tau_stop(D, 2.0).times == 0.25)

    def test_budgets_must_be_positive(self):
        space, S = canonical_walk(1)
        with pytest.raises(ParameterError):
            sigma_stop(S, 1, 0.0)
        with pytest.raises(ParameterError):
            tau_stop(doob_decompose(S, 1), -1.0)


class TestBudgetSearch:
    """Ladder search for the quadratic budget."""

    def test_ladder_starts_at_eight_and_doubles(self):
        rungs = ladder(64.0)
        assert rungs == [8.0, 16.0, 32.0, 64.0]

    def test_ladder_rejects_a_cap_that_is_not_finite(self):
        # a nan cap used to give an empty ladder, read as "exhausted"
        with pytest.raises(ParameterError, match="finite"):
            ladder(float("nan"))

    def test_constant_process_certifies_first_rung(self):
        space, _ = canonical_walk(1)
        S = AdaptedProcess(space, np.zeros((4, 3)))
        stage = discrete_stage(S, [1], 0.1)
        assert stage.c1 == 8.0
        assert [line for line in stage.log if line.startswith("sigma ladder")]

    def test_symmetric_walk_certifies_first_rung(self):
        space, S = canonical_walk(1)
        assert discrete_stage(S, [1], 0.1).c1 == 8.0

    def test_eps_out_of_range_rejected(self):
        space, S = canonical_walk(1)
        with pytest.raises(ParameterError):
            discrete_stage(S, [1], 1.5)


class TestMartingaleEnergy:
    """Second-moment identities for martingale parts."""

    def test_walk_energy(self):
        space, S = canonical_walk(1)
        D = doob_decompose(S, 1)
        assert martingale_l2(D.M) == pytest.approx(0.5, abs=TOL)

    def test_constant_martingale_has_no_increment_energy(self):
        space, _ = canonical_walk(1)
        M = AdaptedProcess(space, np.full((4, 3), 0.5))
        assert martingale_l2(M) == pytest.approx(0.0, abs=TOL)

    def test_orthogonality_check_rejects_drifted_process(self):
        space, Sd = drifted_walk(1)
        with pytest.raises(InvariantViolation):
            martingale_l2(Sd)

    def test_pythagoras_increment_split(self):
        # E[(dS)^2] = E[(dM)^2] + E[(dA)^2] step by step
        for seed in range(4):
            space, S = random_tree_process(3, seed + 9)
            for n in (1, 2, 3):
                D = doob_decompose(S, n)
                dS = restrict_to_level(S, n).increments()
                dM = D.M.increments()
                dA = D.A.increments()
                for j in range(dS.shape[1]):
                    lhs = space.expectation(dS[:, j] ** 2)
                    rhs = space.expectation(dM[:, j] ** 2) + space.expectation(
                        dA[:, j] ** 2
                    )
                    assert lhs == pytest.approx(rhs, abs=BOUND_TOL)

    def test_energy_inequality_martingale_vs_source(self):
        for seed in range(4):
            space, S = random_tree_process(3, seed + 21)
            D = doob_decompose(S, 3)
            dS = restrict_to_level(S, 3).increments()
            assert martingale_l2(D.M) <= space.expectation(
                np.einsum("ij,ij->i", dS, dS)
            ) + BOUND_TOL


class TestSignStrategy:
    """Unit bets along the drift direction."""

    def test_pure_drift_gets_unit_weights(self):
        space, Sd = drifted_walk(1)
        D = doob_decompose(Sd, 1)
        stop = StoppingTime.constant(space, np.inf)
        H = sign_strategy(D, stop)
        assert np.max(np.abs(H.weights - 1.0)) <= TOL

    def test_driftless_process_gets_zero_weights(self):
        space, S = canonical_walk(2)
        D = doob_decompose(S, 2)
        H = sign_strategy(D, StoppingTime.constant(space, np.inf))
        assert np.max(np.abs(H.weights)) == 0.0

    def test_gain_splits_into_variation_plus_martingale_term(self):
        for seed in range(5):
            space, S = random_tree_process(3, seed + 33)
            for n in (1, 2, 3):
                D = doob_decompose(S, n)
                stop = sigma_stop(S, n, 8.0)
                H = sign_strategy(D, stop)
                from semimart.space import stop_process

                A_st = stop_process(D.A, stop)
                tv_stopped = np.abs(A_st.increments()).sum(axis=1)
                lhs = integrate(H, restrict_to_level(S, n))
                rhs = tv_stopped + integrate(H, D.M)
                assert np.max(np.abs(lhs - rhs)) <= TOL


class TestDoobMaximalStop:
    """First passage of the strategy-against-martingale integral."""

    def test_zero_strategy_never_stops(self):
        space, S = canonical_walk(1)
        D = doob_decompose(S, 1)
        from semimart.integrands import SimpleIntegrand

        h = SimpleIntegrand.constant(space, 0.0)
        assert doob_maximal_stop(D, h, 0.4).prob_finite() == 0.0

    def test_unit_strategy_stops_at_first_move(self):
        space, S = canonical_walk(1)
        D = doob_decompose(S, 1)
        from semimart.integrands import SimpleIntegrand

        h = SimpleIntegrand.constant(space, 1.0)
        tau = doob_maximal_stop(D, h, 0.4)
        assert np.all(tau.times == 0.5)

    def test_large_budget_never_hit(self):
        space, S = canonical_walk(1)
        D = doob_decompose(S, 1)
        from semimart.integrands import SimpleIntegrand

        h = SimpleIntegrand.constant(space, 1.0)
        assert doob_maximal_stop(D, h, 2.0).prob_finite() == 0.0


class TestDiscreteStage:
    """Per-level certification and its failure branches."""

    def test_symmetric_walk_certifies_all_levels(self):
        space, S = canonical_walk(3)
        stage = discrete_stage(S, (1, 2, 3), 0.1)
        assert stage.passed
        assert stage.failure == ""
        assert stage.c1 == 8.0 and stage.c2 == 8.0
        assert stage.witnesses == ()
        assert [cert.level for cert in stage.certificates] == [1, 2, 3]
        for cert in stage.certificates:
            assert cert.C == 8.0
            assert cert.rho.prob_finite() == 0.0
            assert cert.p_stop < 0.1

    def test_deterministic_line_certifies(self):
        space, S = one_atom_line(3)
        stage = discrete_stage(S, (1, 2, 3), 0.1)
        assert stage.passed
        assert stage.certificates[0].C >= 1.0

    def test_rough_path_fails_with_witnesses(self):
        spec = GeneratorSpec(kind="rl_fractional", level=4, seed=0, hurst=0.75)
        S = generate(spec).process
        stage = discrete_stage(S, (1, 2, 3, 4), 0.1)
        assert not stage.passed
        assert stage.failure == "tv-growth"
        assert stage.certificates == ()
        assert len(stage.witnesses) == len(stage.levels) == 4
        for n, witness in zip(stage.levels, stage.witnesses):
            # the level-n grid mesh plus the cap's closing interval
            assert witness.space is S.space
            assert len(witness.mesh) == (1 << n) + 2
        # the level means that triggered the guard grow strictly
        assert all(
            b > 1.05 * a for a, b in zip(stage.tv_means, stage.tv_means[1:])
        )

    def test_stopped_bounds_hold_on_certificates(self):
        space, Sd = drifted_walk(3, slope=0.4)
        scaled = Sd.scale(1.0 / Sd.sup_norm())
        stage = discrete_stage(scaled, (1, 2, 3), 0.1)
        assert stage.passed
        for cert in stage.certificates:
            assert cert.tv_stopped <= cert.C + BOUND_TOL
            assert cert.m_l2_stopped <= cert.C + BOUND_TOL

    def test_requires_zero_start(self):
        space, _ = canonical_walk(1)
        S = AdaptedProcess(space, np.full((4, 3), 0.3))
        with pytest.raises(PreconditionError):
            discrete_stage(S, (1,), 0.1)

    def test_requires_unit_sup_bound(self):
        space, S = canonical_walk(1)
        with pytest.raises(PreconditionError):
            discrete_stage(S.scale(4.0), (1,), 0.1)

    def test_levels_validated(self):
        space, S = canonical_walk(2)
        with pytest.raises(ParameterError):
            discrete_stage(S, (0, 1), 0.1)
        with pytest.raises(ParameterError):
            discrete_stage(S, (1, 2), 2.0)

    def test_levels_above_the_finest_are_rejected(self):
        space, S = canonical_walk(2)
        with pytest.raises(ParameterError, match=r"levels must lie in 1\.\.2, got \[9\]"):
            discrete_stage(S, (9,), 0.1)
        with pytest.raises(ParameterError, match="levels"):
            discrete_stage(S, (1, 3), 0.1)


def drift_side_case(name):
    """(S, drift, levels, eps) of a source that fails on the drift side."""
    if name == "tree":
        tree = generate(GeneratorSpec(kind="rl_fractional", level=3, hurst=0.75))
        return tree.process, None, (1, 2, 3), 0.1
    if name == "ensemble":
        E = generate(GeneratorSpec(kind="rl_fractional", level=5, hurst=0.75, mode="ensemble",
                                   paths=128, seed=11))
        return E.process, E.drift_increments, (2, 3, 4, 5), 0.1
    return rare_jump_walk(6)[1], None, (5, 6), 0.5


@pytest.mark.parametrize("name", ["tree", "ensemble", "rare-jump"])
def test_drift_witness_is_the_capped_sign_strategy(name):
    """A failing drift-side level hands over sign(A^sigma) cut where its
    martingale integral reaches sqrt(8 c1 / eps), and no decomposition."""
    S, drift, levels, eps = drift_side_case(name)
    stage = discrete_stage(S, levels, eps, drift=drift)
    assert stage.failure == "tv-growth"
    # the witnesses' weights are signs, so whole-number values keep the
    # brute-force integral in assert_same_integrand exact
    probe = AdaptedProcess(S.space, np.round(8.0 * S.values))
    assert stage.certificates == ()
    assert stage.levels == levels
    assert len(stage.witnesses) == len(levels)
    for n, witness in zip(stage.levels, stage.witnesses):
        D = doob_decompose(S, n, drift(n) if drift else None)
        H = sign_strategy(D, sigma_stop(S, n, stage.c1))
        ref = H.truncate(doob_maximal_stop(D, H, math.sqrt(8.0 * stage.c1 / eps)))
        assert_same_integrand(witness, ref, probe)
    if name == "rare-jump":
        # the cap stops some atoms and not others
        assert stage.witnesses[-1]._eff.shape[0] == S.space.n_atoms


def stage_case(name):
    """(S, drift, levels, eps) of a stage that certifies, or fails on either side."""
    if name == "certificate":
        tree = generate(GeneratorSpec(kind="rademacher_bm", level=3))
        return tree.process, None, (1, 2, 3), 0.1
    if name == "qv-side":
        tree = generate(GeneratorSpec(kind="rl_fractional", level=3, hurst=0.25))
        return tree.process, None, (1, 2, 3), 0.1
    return drift_side_case(name)


@pytest.mark.parametrize("name", ["certificate", "qv-side", "tree", "ensemble", "rare-jump"])
def test_stage_decomposes_each_level_once(monkeypatch, name):
    """Pass 2 rebuilds a level's M from its kept A instead of decomposing
    the level again; the rebuilt M has the bits of the checked one."""
    S, drift, levels, eps = stage_case(name)
    made = []
    decompose = doob.doob_decompose

    def counted(*args, **kwargs):
        made.append(decompose(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(doob, "doob_decompose", counted)
    stage = discrete_stage(S, levels, eps, drift=drift)
    assert [D.level for D in made] == list(levels)
    assert stage.passed == (name == "certificate")
    assert stage.failure.startswith("qv") == (name == "qv-side")
    for D in made:
        again = doob._rebuilt(S, D.level, D.A, D.qv, D.tv, D.m_l2, D.analytic)
        assert np.array_equal(again.M.values.view(np.uint64), D.M.values.view(np.uint64))
        assert again.M.values.strides == D.M.values.strides
        assert again.A is D.A and again.analytic == D.analytic and again.m_l2 == D.m_l2


# Traced peak of `discrete_stage` on an L8, 512-path rl_fractional ensemble
# (levels 5-8), counted in (atoms x times) float64 arrays: 6.2 measured with
# numpy 2.4, set in the last `doob_maximal_stop`, plus the 0.6 margin the
# bound has kept; 6.9 while the finest `doob_decompose` held its identity
# check's temporary whole and |dA| beside dS.
ENSEMBLE_STAGE_TRACED_PEAK_ARRAYS = 6.8


def test_ensemble_discrete_stage_traced_peak_stays_bounded():
    source = generate(GeneratorSpec(kind="rl_fractional", level=8, hurst=0.75, mode="ensemble",
                                    paths=512, seed=1))
    S = source.process  # the input is built before tracing starts
    tracemalloc.start()
    try:
        stage = discrete_stage(S, (5, 6, 7, 8), 0.1, drift=source.drift_increments)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stage.failure == "tv-growth"
    assert peak / S.values.nbytes < ENSEMBLE_STAGE_TRACED_PEAK_ARRAYS
