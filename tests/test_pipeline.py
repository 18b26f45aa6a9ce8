"""Tests for the jump split, budget-stopped mixing, and the full dichotomy."""

import gc
import re
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

import semimart.pipeline as pipeline
import semimart.space as space_module
from semimart.doob import (
    DoobDecomposition,
    StageCertificate,
    discrete_stage,
    doob_decompose,
    qv_strategy,
)
from semimart.komlos import ConvexWeights, WeightBlock
from semimart.errors import ConvergenceError, InvariantViolation, ParameterError, PreconditionError
from semimart.generators import GeneratorSpec, generate
from semimart.integrands import (
    SimpleIntegrand,
    StrategySequence,
    integral_process,
    integrate,
    vr_metric,
)
from semimart.pipeline import (
    DetectConfig,
    FreeLunchEvidence,
    Inconclusive,
    SemimartingaleCertificate,
    assemble_decomposition,
    big_jump_split,
    continuous_stage,
    detect,
    extend_martingale,
)
from semimart.space import (
    AdaptedProcess,
    DyadicGrid,
    FilteredSpace,
    StoppingTime,
    stop_process,
    tree_innovations,
)
from helpers import binary_tree_space, constant_integrand, recorded_stage, residual_against

TOL = 1e-12
CERT_TOL = 1e-10


def canonical_walk(level):
    space = binary_tree_space(level)
    incr = tree_innovations(level) * (2.0 ** -level)
    values = np.concatenate(
        [np.zeros((space.n_atoms, 1)), np.cumsum(incr, axis=1)], axis=1
    )
    return space, AdaptedProcess(space, values)


def one_atom_path(points):
    """Single-atom process through the given values on a dyadic grid."""
    level = int(np.log2(len(points) - 1))
    grid = DyadicGrid(level)
    space = FilteredSpace(grid, np.array([1.0]), np.zeros((grid.n_times, 1), dtype=int))
    return space, AdaptedProcess(space, np.asarray(points, dtype=float)[None, :])


class TestBigJumpSplit:
    """Separating unit-size moves from the small-increment part."""

    def test_no_big_moves_means_no_jumps(self):
        space, S = canonical_walk(2)
        X, J = big_jump_split(S)
        assert np.max(np.abs(J.values)) == 0.0
        assert np.array_equal(X.values, S.values)

    def test_without_a_big_jump_the_small_part_is_the_process_itself(self):
        S = generate(GeneratorSpec(kind="rl_fractional", level=3, hurst=0.75)).process
        X, J = big_jump_split(S)
        assert X is S
        # J is one read-only +0.0, broadcast over the process's shape
        assert J.values.shape == S.values.shape and J.values.strides == (0, 0)
        assert not J.values.any() and not np.signbit(J.values).any()
        assert np.array_equal(J.time_index, S.time_index)

    def test_single_large_move_extracted(self):
        space, S = one_atom_path([0.0, 0.2, 3.2])
        X, J = big_jump_split(S)
        assert J.values[0] == pytest.approx([0.0, 0.0, 3.0], abs=TOL)
        assert X.values[0] == pytest.approx([0.0, 0.2, 0.2], abs=TOL)

    def test_boundary_size_counts_as_jump(self):
        space, S = one_atom_path([0.0, -1.0, -1.0])
        X, J = big_jump_split(S)
        assert J.values[0] == pytest.approx([0.0, -1.0, -1.0], abs=TOL)
        assert np.max(np.abs(X.values)) == 0.0

    def test_parts_recombine_and_small_part_stays_small(self):
        spec = GeneratorSpec(kind="jump", level=3, seed=3)
        S = generate(spec).process
        X, J = big_jump_split(S)
        assert np.max(np.abs(X.values + J.values - S.values)) <= TOL
        assert np.abs(X.increments()).max() < 1.0

    def test_split_is_idempotent(self):
        spec = GeneratorSpec(kind="jump", level=2, seed=1)
        S = generate(spec).process
        X, _ = big_jump_split(S)
        X2, J2 = big_jump_split(X)
        assert np.max(np.abs(J2.values)) == 0.0
        assert np.array_equal(X2.values, X.values)

    def test_drawdown_bound_under_the_split(self):
        # sup (H.S)^- <= sup (H.X)^- + (|H| . TV(J))_1 for simple strategies
        spec = GeneratorSpec(kind="jump", level=3, seed=7)
        src = generate(spec)
        space, S = src.space, src.process
        X, J = big_jump_split(S)
        tvJ = np.concatenate(
            [np.zeros((space.n_atoms, 1)), np.cumsum(np.abs(J.increments()), axis=1)],
            axis=1,
        )
        TVJ = AdaptedProcess(space, tvJ)
        rng = np.random.default_rng(41)
        for _ in range(100):
            cuts = np.sort(rng.choice(np.arange(1, 8), size=2, replace=False))
            mesh = [0, int(cuts[0]), int(cuts[1]), 8]
            w = np.empty((space.n_atoms, 3))
            w[:, 0] = rng.uniform(-1, 1)
            for c in (1, 2):
                # weights constant on the cells at the preceding mesh time
                labels = space.labels[mesh[c - 1]]
                vals = rng.uniform(-1, 1, size=labels.max() + 1)
                w[:, c] = vals[labels]
            H = SimpleIntegrand.from_grid_mesh(space, mesh, w)
            Habs = SimpleIntegrand.from_grid_mesh(space, mesh, np.abs(w))
            lhs = vr_metric(H, S)
            rhs = vr_metric(H, X) + float(integrate(Habs, TVJ).max())
            assert lhs <= rhs + CERT_TOL


class TestExtendMartingale:
    """Finest-grid extension of a coarse-level decomposition."""

    def test_martingale_extends_to_itself(self):
        space, S = canonical_walk(2)
        D = doob_decompose(S, 1)
        M_ext, A_ext = extend_martingale(D.level, D.M.values[:, -1], S)
        assert np.max(np.abs(M_ext.values - S.values)) <= TOL
        assert np.max(np.abs(A_ext.values)) <= TOL

    def test_constant_zero_process(self):
        space, _ = canonical_walk(1)
        S = AdaptedProcess(space, np.zeros((4, 3)))
        D = doob_decompose(S, 1)
        M_ext, A_ext = extend_martingale(D.level, D.M.values[:, -1], S)
        assert np.max(np.abs(M_ext.values)) <= TOL
        assert np.max(np.abs(A_ext.values)) <= TOL

    def test_drift_recovered_on_the_fine_grid(self):
        mu, level = 0.5, 3
        scale = (1.0 - mu) * 2.0 ** (-level / 2)
        spec = GeneratorSpec(kind="drifted", level=level, mu=mu, scale=scale)
        src = generate(spec)
        space, S = src.space, src.process
        D = doob_decompose(S, 2)
        M_ext, A_ext = extend_martingale(D.level, D.M.values[:, -1], S)
        assert np.max(np.abs(M_ext.values + A_ext.values - S.values)) <= TOL
        # within each coarse cell the drift stays near its cell-start value
        anchor = A_ext.values[:, (np.arange(9) // 2) * 2]
        assert np.abs(A_ext.values - anchor).max() <= 2.0 + CERT_TOL

    def test_requires_normalized_source(self):
        space, S = canonical_walk(1)
        D = doob_decompose(S, 1)
        with pytest.raises(PreconditionError):
            extend_martingale(D.level, D.M.values[:, -1], S.scale(3.0))


UNIT_BAND_CALLERS = {
    "discrete_stage": lambda S: discrete_stage(S, (1, 2), 0.1),
    "extend_martingale": lambda S: extend_martingale(1, np.zeros(S.space.n_atoms), S),
    "qv_strategy": lambda S: qv_strategy(S, 2),
}


@pytest.mark.parametrize("caller", UNIT_BAND_CALLERS)
def test_every_unit_band_caller_refuses_by_name(caller):
    """One refusal serves every caller that assumes the unit band, and its
    message names the caller.  qv_strategy asks only for ||S|| <= 1: its
    gain identity holds for any S_0."""
    space, S = canonical_walk(2)
    call = UNIT_BAND_CALLERS[caller]
    with pytest.raises(PreconditionError, match=re.escape(f"{caller} requires ||S||_inf <= 1 (got 3.0)")):
        call(S.scale(3.0))
    shifted = S.scale(0.5).shift(np.full(space.n_atoms, 0.25))
    if caller == "qv_strategy":
        call(shifted)
    else:
        with pytest.raises(PreconditionError, match=re.escape(f"{caller} requires S_0 = 0")):
            call(shifted)


class TestContinuousStage:
    """Mixing stopped level decompositions."""

    def test_never_stopped_walk_mixes_to_itself(self, monkeypatch):
        space, S = canonical_walk(2)
        stage = discrete_stage(S, (1, 2), 0.1)
        rec = recorded_stage(monkeypatch)
        cstage = continuous_stage(S, stage.certificates)
        assert cstage.alpha.prob_finite() == 0.0
        assert np.all(cstage.alpha.index == cstage.alpha.inf_index)
        assert rec.rbar_limit == pytest.approx(np.ones(space.n_atoms), abs=TOL)
        assert len(rec.scripts) == len(rec.exits)
        for s in rec.selected:
            m_script, a_script = rec.scripts[s]
            assert np.max(np.abs(m_script.values - S.values)) <= 1e-10
            assert np.max(np.abs(a_script.values)) <= 1e-10

    def test_disjoint_stop_blocks_obey_the_exit_bounds(self, monkeypatch):
        # seven certificates stopping on disjoint 1/16 blocks at t = 1/2
        eps = 0.125
        space, S = canonical_walk(3)
        D = doob_decompose(S, 3)
        n_times = space.grid.n_times
        certs = []
        for i in range(7):
            idx = np.full(space.n_atoms, n_times, dtype=np.int64)
            idx[16 * i : 16 * (i + 1)] = 4
            rho = StoppingTime(space, idx)
            M_st = stop_process(D.M, rho)
            A_st = stop_process(D.A, rho)
            certs.append(
                StageCertificate(
                    level=3,
                    eps=eps,
                    C=8.0,
                    rho=rho,
                    tv_stopped=float(np.abs(A_st.increments()).sum(axis=1).max()),
                    m_l2_stopped=float(space.expectation(M_st.values[:, -1] ** 2)),
                    p_stop=rho.prob_finite(),
                    m_terminal=D.M.values[:, -1],
                )
            )
        assert all(c.p_stop == pytest.approx(eps / 2) for c in certs)
        rec = recorded_stage(monkeypatch)
        cstage = continuous_stage(S, certs)
        assert len(rec.exits) == len(rec.weights) > 0
        for (alpha_k, rbar_terminal), w in zip(rec.exits, rec.weights):
            assert space.expectation(rbar_terminal) >= 1.0 - eps - CERT_TOL
            assert alpha_k.prob_finite() <= 2.0 * eps + CERT_TOL
            assert w.max() <= 2.0 + CERT_TOL
            assert np.abs(np.diff(w, axis=1)).sum(axis=1).max() <= 3.0 + CERT_TOL
        assert len(rec.selected) >= 3
        assert cstage.alpha.prob_finite() <= 4.0 * eps + CERT_TOL

    def test_failed_certificates_rejected(self):
        # a failed stage hands over witnesses and no certificates
        S = generate(GeneratorSpec(kind="rl_fractional", level=3, hurst=0.75)).process
        stage = discrete_stage(S, (1, 2, 3), 0.1)
        assert not stage.passed and stage.certificates == ()
        with pytest.raises(ParameterError, match="at least one certificate"):
            continuous_stage(S, stage.certificates)


class TestAssembleDecomposition:
    """Final extraction into a certified decomposition."""

    def test_walk_assembles_to_itself(self):
        space, S = canonical_walk(2)
        stage = discrete_stage(S, (1, 2), 0.1)
        cstage = continuous_stage(S, stage.certificates)
        cert = assemble_decomposition(cstage)
        assert np.max(np.abs(cert.M.values - S.values)) <= 1e-8
        assert np.max(np.abs(cert.A.values)) <= 1e-8
        assert cert.residuals["decomposition"] <= CERT_TOL

    def test_assembly_reads_the_stopped_mixes_without_stopping(self, monkeypatch):
        source = generate(GeneratorSpec(kind="rademacher_bm", level=3))
        S = source.process
        stage = discrete_stage(S, (1, 2, 3), 0.1)
        rec = recorded_stage(monkeypatch)
        cstage = continuous_stage(S, stage.certificates)
        assert np.array_equal(
            cstage.stopped_source.values.view(np.uint64),
            stop_process(S, cstage.alpha).values.view(np.uint64),
        )
        assert len(cstage.stopped_m) == len(cstage.stopped_a) == len(rec.selected)
        calls = []

        def counted(*args):
            calls.append(args)
            return stop_process(*args)

        monkeypatch.setattr(pipeline, "stop_process", counted)
        cert = assemble_decomposition(cstage)
        assert calls == []
        assert residual_against(cert, S) <= CERT_TOL

    def test_a_never_stopping_alpha_shares_the_source_and_the_scripts(self, monkeypatch):
        """p_stop = 0 at every level, so alpha stops no atom: the stopped
        source is the source, each stopped A the selected step's own
        script-A, and each stopped M terminal its script-M's last column."""
        S = generate(GeneratorSpec(kind="rademacher_bm", level=3)).process
        stage = discrete_stage(S, (1, 2, 3), 0.1)
        assert [c.p_stop for c in stage.certificates] == [0.0, 0.0, 0.0]
        rec = recorded_stage(monkeypatch)
        cstage = continuous_stage(S, stage.certificates)
        assert cstage.alpha.prob_finite() == 0.0
        assert cstage.stopped_source is S
        assert len(cstage.stopped_m) == len(cstage.stopped_a) == len(rec.selected) >= 3
        for s, m_st, a_st in zip(rec.selected, cstage.stopped_m, cstage.stopped_a):
            m_script, a_script = rec.scripts[s]
            assert np.array_equal(m_st.view(np.uint64), m_script.values[:, -1].view(np.uint64))
            assert a_st is a_script

    def test_pure_drift_assembles_to_drift_only(self):
        space, S = one_atom_path(np.linspace(0.0, 0.5, 9))
        stage = discrete_stage(S, (1, 2, 3), 0.1)
        cstage = continuous_stage(S, stage.certificates)
        cert = assemble_decomposition(cstage)
        assert np.max(np.abs(cert.M.values)) <= 1e-10
        assert np.max(np.abs(cert.A.values - S.values)) <= 1e-10

    @pytest.mark.parametrize("part", ["M", "A"])
    def test_certificate_rejects_non_adapted_part(self, part):
        space, S = canonical_walk(2)
        peek = np.zeros_like(S.values)
        peek[0, 1] = 0.01  # atom 0 moves alone inside its time-1/4 cell
        parts = {"M": S, "A": AdaptedProcess(space, np.zeros_like(S.values))}
        parts[part] = AdaptedProcess(space, parts[part].values + peek)
        with pytest.raises(InvariantViolation, match=f"part {part} is not adapted"):
            SemimartingaleCertificate(
                alpha=StoppingTime(space, np.full(space.n_atoms, space.grid.n_times)),
                constants={"tv_bound": 1.0}, residuals={}, **parts,
            )

    def test_certificate_computes_its_own_residuals(self):
        space, S = canonical_walk(2)
        never = StoppingTime(space, np.full(space.n_atoms, space.grid.n_times))
        zero = AdaptedProcess(space, np.zeros_like(S.values))
        cert = SemimartingaleCertificate(
            M=S, A=zero, alpha=never, constants={"tv_bound": 1.0},
            residuals={"decomposition": 0.0, "martingale": 1.0},
        )
        assert cert.residuals == {"decomposition": 0.0, "martingale": 0.0, "A_start": 0.0}
        # an adapted M with a drift is no martingale, whatever the caller reports
        drift = AdaptedProcess(space, np.broadcast_to(space.grid.times, S.values.shape))
        with pytest.raises(InvariantViolation, match="residual martingale"):
            SemimartingaleCertificate(
                M=drift, A=zero, alpha=never, constants={"tv_bound": 1.0},
                residuals={"decomposition": 0.0, "martingale": 0.0},
            )
        with pytest.raises(InvariantViolation, match="residual A_start"):
            SemimartingaleCertificate(
                M=S, A=AdaptedProcess(space, np.ones_like(S.values)), alpha=never,
                constants={"tv_bound": 1.0}, residuals={},
            )


class TestDetect:
    """End-to-end dichotomy verdicts."""

    def test_symmetric_walk_gets_a_certificate(self):
        source = generate(GeneratorSpec(kind="rademacher_bm", level=2))
        verdict = detect(source)
        assert isinstance(verdict, SemimartingaleCertificate)
        assert verdict.kind == "certificate"
        assert residual_against(verdict, source.process) <= CERT_TOL
        assert np.max(np.abs(verdict.A.values)) <= CERT_TOL
        assert verdict.table

    def test_deterministic_line_gets_drift_only_certificate(self):
        source = generate(GeneratorSpec(kind="deterministic_drift", level=3, scale=1.0))
        verdict = detect(source)
        assert verdict.kind == "certificate"
        assert np.max(np.abs(verdict.M.values)) <= CERT_TOL
        assert np.max(np.abs(verdict.A.values - source.process.values)) <= CERT_TOL

    def test_jump_path_gets_certificate_with_jump_in_drift(self):
        src = generate(GeneratorSpec(kind="jump", level=2, seed=2))
        S = src.process
        verdict = detect(src)
        assert verdict.kind == "certificate"
        assert residual_against(verdict, S) <= CERT_TOL
        # the time-1/2 move of size jump + 2^-n sits in A's increments
        dA = np.abs(verdict.A.increments())
        assert dA.max() == pytest.approx(1.75, abs=1e-8)

    def test_rough_path_yields_free_lunch_evidence(self):
        source = generate(GeneratorSpec(kind="rl_fractional", level=4, hurst=0.75))
        verdict = detect(source)
        assert isinstance(verdict, FreeLunchEvidence)
        assert verdict.kind == "free_lunch"
        li = verdict.strategies.li
        assert all(b < a for a, b in zip(li, li[1:]))
        assert li[-1] < 1e-3
        assert verdict.strategies.vr[-1] < 1e-3
        assert verdict.alpha_star > 0
        assert all(p >= verdict.alpha_star for p in verdict.strategies.fl)

    def test_verdicts_stable_under_positive_scaling(self):
        for lam in (0.3, 1.0):
            src = generate(GeneratorSpec(kind="rademacher_bm", level=2))
            assert detect(replace(src, values=src.values * lam)).kind == "certificate"
            src = generate(GeneratorSpec(kind="rl_fractional", level=4, hurst=0.75))
            assert detect(replace(src, values=src.values * lam)).kind == "free_lunch"

    def test_certified_ensemble_is_inconclusive(self):
        E = generate(
            GeneratorSpec(kind="rademacher_bm", level=3, mode="ensemble", paths=64, seed=13)
        )
        verdict = detect(E)
        assert isinstance(verdict, Inconclusive)
        assert "exact" in verdict.reason

    def test_rough_ensemble_still_fails_towards_evidence(self):
        E = generate(
            GeneratorSpec(
                kind="rl_fractional", level=6, mode="ensemble", paths=256, seed=11
            )
        )
        verdict = detect(E, DetectConfig(levels=(3, 4, 5, 6)))
        assert verdict.kind == "free_lunch"

    def test_config_validation(self):
        with pytest.raises(ParameterError):
            DetectConfig(eps=0.0)
        with pytest.raises(ParameterError):
            DetectConfig(tol=-1e-8)

    @pytest.mark.parametrize(
        "field, value",
        [("ladder_max", float("nan")), ("ladder_max", float("inf")), ("ladder_max", 4.0),
         ("window", 1)],
        ids=["ladder-nan", "ladder-inf", "ladder-below-base", "window-1"],
    )
    def test_config_rejects_a_ladder_or_window_the_stages_cannot_use(self, field, value):
        with pytest.raises(ParameterError, match=f"^{field} must be"):
            DetectConfig(**{field: value})

    def test_half_level_localization_and_normalization_constants(self):
        source = generate(GeneratorSpec(kind="rademacher_bm", level=2))
        verdict = detect(source)
        assert verdict.constants["normalization"] >= 1.0
        assert verdict.constants["p_localized"] == 0.0
        assert verdict.constants["tv_bound"] >= 0.0


@pytest.mark.parametrize(
    "spec, levels",
    [
        (dict(kind="rl_fractional", level=3, hurst=0.75), None),
        (dict(kind="rl_fractional", level=6, hurst=0.75, mode="ensemble", paths=256, seed=11),
         (3, 4, 5, 6)),
        (dict(kind="rl_fractional", level=3, hurst=0.25), None),
    ],
    ids=["drift-tree", "drift-ensemble", "qv-tree"],
)
def test_no_decomposition_outlives_the_discrete_stage(monkeypatch, spec, levels):
    """The free-lunch branch reads only finished witnesses, so every level
    decomposition is garbage by the time it starts."""
    made = []
    post_init = DoobDecomposition.__post_init__

    def recording_post_init(self):
        post_init(self)
        made.append(weakref.ref(self))

    alive_at_entry = []
    free_lunch = pipeline._free_lunch

    def checked_free_lunch(*args):
        gc.collect()
        alive_at_entry.append(sum(ref() is not None for ref in made))
        return free_lunch(*args)

    monkeypatch.setattr(DoobDecomposition, "__post_init__", recording_post_init)
    monkeypatch.setattr(pipeline, "_free_lunch", checked_free_lunch)
    verdict = detect(generate(GeneratorSpec(**spec)), DetectConfig(levels=levels))
    assert verdict.kind == "free_lunch"
    assert made and alive_at_entry == [0]


def test_no_decomposition_outlives_the_continuous_stage(monkeypatch):
    """The assembly reads only the stopped mixes, so every level
    decomposition is garbage by the time it starts."""
    made = []
    post_init = DoobDecomposition.__post_init__

    def recording_post_init(self):
        post_init(self)
        made.append(weakref.ref(self))

    alive_at_entry = []
    assemble = pipeline.assemble_decomposition

    def checked_assemble(*args, **kwargs):
        gc.collect()
        alive_at_entry.append(sum(ref() is not None for ref in made))
        return assemble(*args, **kwargs)

    monkeypatch.setattr(DoobDecomposition, "__post_init__", recording_post_init)
    monkeypatch.setattr(pipeline, "assemble_decomposition", checked_assemble)
    verdict = detect(generate(GeneratorSpec(kind="rademacher_bm", level=3)))
    assert verdict.kind == "certificate"
    assert made and alive_at_entry == [0]


def test_no_decomposition_reaches_the_continuous_stage(monkeypatch):
    """A certificate carries the level's M_1, not its decomposition, so
    every level decomposition is garbage once the discrete stage returns."""
    made = []
    post_init = DoobDecomposition.__post_init__

    def recording_post_init(self):
        post_init(self)
        made.append(weakref.ref(self))

    alive_at_entry = []
    stage = pipeline.continuous_stage

    def checked_stage(*args, **kwargs):
        gc.collect()
        alive_at_entry.append(sum(ref() is not None for ref in made))
        return stage(*args, **kwargs)

    monkeypatch.setattr(DoobDecomposition, "__post_init__", recording_post_init)
    monkeypatch.setattr(pipeline, "continuous_stage", checked_stage)
    verdict = detect(generate(GeneratorSpec(kind="rademacher_bm", level=3)))
    assert verdict.kind == "certificate"
    assert made and alive_at_entry == [0]


def record_level_lifetimes(monkeypatch) -> tuple[list, list, list]:
    """Spies on the continuous stage: the builds of each level's stopped
    increments (level, weakrefs to the pair), the extraction's blocks,
    and, at the entry of each pass-2 step, the levels whose increments
    are alive then."""
    builds, blocks, alive = [], [], []
    stopped_increments = pipeline._stopped_increments

    def recorded_increments(cert, *args):
        pair = stopped_increments(cert, *args)
        builds.append((cert.level, [weakref.ref(a) for a in pair]))
        return pair

    extract = pipeline.extract_convex

    def recorded_extract(*args, **kwargs):
        cw, limit = extract(*args, **kwargs)
        blocks.extend(cw.blocks)
        return cw, limit

    mix_step = pipeline._mix_step

    def checked(*args, **kwargs):
        gc.collect()
        alive.append({level for level, refs in builds if any(ref() is not None for ref in refs)})
        return mix_step(*args, **kwargs)

    monkeypatch.setattr(pipeline, "_stopped_increments", recorded_increments)
    monkeypatch.setattr(pipeline, "extract_convex", recorded_extract)
    monkeypatch.setattr(pipeline, "_mix_step", checked)
    return builds, blocks, alive


def check_level_lifetimes(levels, builds, blocks, alive):
    """Each level is built once and alive exactly from the first step that
    gives it a nonzero weight to the last; a level no step weights is
    dead at every step."""
    pos = np.minimum(np.arange(len(levels) + pipeline.PAD_COPIES), len(levels) - 1)
    assert sorted(level for level, _ in builds) == sorted(levels)
    assert len(alive) == len(blocks)
    for i, level in enumerate(levels):
        weighted = [s for s, blk in enumerate(blocks) if blk.weights[pos[blk.indices] == i].any()]
        lifetime = range(weighted[0], weighted[-1] + 1) if weighted else range(0)
        assert [s for s, levels_alive in enumerate(alive) if level in levels_alive] == list(lifetime)
    gc.collect()
    assert all(ref() is None for _, refs in builds for ref in refs)


def test_each_level_is_freed_after_its_last_mixing_step(monkeypatch):
    """Step s mixes positions s, s+1, ... only, so a level's stopped
    increments are needed from the first step that weights one of its
    positions to the last; they are built once and alive exactly then."""
    builds, blocks, alive = record_level_lifetimes(monkeypatch)
    verdict = detect(generate(GeneratorSpec(kind="rademacher_bm", level=3)))
    assert verdict.kind == "certificate"
    check_level_lifetimes((1, 2, 3), builds, blocks, alive)
    # the levels before the finest are dead at the last step
    assert alive[-1] == {3}


def test_a_level_no_step_weights_is_built_once_and_dropped(monkeypatch):
    """Weights chosen so that level 1 gets none, level 2 only steps 0
    and 1, and level 3 steps 0, 2, 3 and 4, so it stays alive through
    step 1, which does not weight it."""
    S = generate(GeneratorSpec(kind="rademacher_bm", level=3)).process
    stage = discrete_stage(S, (1, 2, 3), 0.1)
    weights = [(0, [0.0, 0.5, 0.5]), (1, [1.0, 0.0]), (2, [1.0]), (3, [1.0]), (4, [1.0, 0.0])]
    cw = ConvexWeights(tuple(WeightBlock(s, w) for s, w in weights), (0.0,) * 5, 0, 1e-8, ())

    def extract(vectors, **_):
        return cw, cw.combination(cw.n_steps - 1, vectors)

    monkeypatch.setattr(pipeline, "extract_convex", extract)
    builds, blocks, alive = record_level_lifetimes(monkeypatch)
    rec = recorded_stage(monkeypatch)
    continuous_stage(S, stage.certificates)
    assert len(rec.exits) == 5 and len(rec.selected) >= 3
    check_level_lifetimes((1, 2, 3), builds, blocks, alive)
    assert alive == [{2, 3}, {2, 3}, {3}, {3}, {3}]


def test_a_step_violation_comes_before_a_short_selection(monkeypatch):
    """Pass 1 fixes the selection, but a selection of fewer than 3 steps
    raises only after pass 2 has checked every step."""
    S = generate(GeneratorSpec(kind="rademacher_bm", level=3)).process
    stage = discrete_stage(S, (1, 2, 3), 0.1)
    extract = pipeline.extract_convex

    def short_tail(*args, **kwargs):
        cw, limit = extract(*args, **kwargs)
        return replace(cw, converged_from=cw.n_steps - 2), limit

    monkeypatch.setattr(pipeline, "extract_convex", short_tail)
    with pytest.raises(ConvergenceError, match="only 2 steps"):
        continuous_stage(S, stage.certificates)
    monkeypatch.setattr(pipeline, "IDENT_TOL", -1.0)
    with pytest.raises(InvariantViolation, match="mix identity off by .* at step 0"):
        continuous_stage(S, stage.certificates)


def test_a_level_rho_that_is_no_stopping_time_is_refused_before_the_steps():
    """The extension refuses such a rho; the refusal comes before pass 1,
    whose exit times it would make fail as stopping times."""
    S = generate(GeneratorSpec(kind="rademacher_bm", level=3)).process
    certs = list(discrete_stage(S, (1, 2, 3), 0.1).certificates)
    index = np.full(S.space.n_atoms, S.space.grid.n_times)
    index[0] = 1  # atom 0 stops alone inside its time-1/8 cell
    certs[1] = replace(certs[1], rho=StoppingTime(S.space, index))
    with pytest.raises(PreconditionError, match="genuine stopping time"):
        continuous_stage(S, certs)


def test_mixed_skips_zero_weights_bit_for_bit():
    """Zero weights first, in the middle and last of a block, over
    increments that hold +0.0, -0.0, both signs and products that
    underflow to a signed zero: the mix equals the accumulation of every
    term bit for bit, without the levels that only zero weights name."""
    rng = np.random.default_rng(23)
    values = np.array([0.0, -0.0, 1.5, -1.5, 2.25, -3.0, 5e-324, -5e-324])
    inc = [(rng.choice(values, (32, 8)), rng.choice(values, (32, 8))) for _ in range(4)]
    mu = np.array([0.0, 0.25, 0.0, 0.5, 0.0, 0.25, 0.0])
    idx = np.array([0, 1, 2, 1, 3, 3, 3])
    built = [None, inc[1], None, inc[3]]  # levels 0 and 2 get only zero weights
    for part in (0, 1):
        full = np.zeros((32, 8))
        for j, i in enumerate(idx):
            full += mu[j] * inc[i][part]
        assert np.array_equal(pipeline._mixed(built, part, mu, idx).view(np.uint64),
                              full.view(np.uint64))


# Traced peak of an L4 tree `detect`, counted in (atoms x times) float64
# arrays: 14.2 measured with numpy 2.4, set in the continuous stage's last
# step, plus a margin of 3.6 for other numpy versions' temporaries.  It
# was 22.4 while the stage kept every step's scripts and every level
# until late, and 35.6 when every certified level stayed alive through
# the continuous stage.
L4_TRACED_PEAK_ARRAYS = 17.8
# Traced peak of the same run inside `assemble_decomposition`: 12.3
# measured with numpy 2.4, 20.6 while the stage handed over every step's
# scripts.  The stopped A's it reads, one array per selected step, are 6.
L4_ASSEMBLY_TRACED_PEAK_ARRAYS = 13.0


def test_certificate_path_traced_peak_stays_bounded():
    source = generate(GeneratorSpec(kind="rademacher_bm", level=4))
    space = source.space
    source.process  # the input is built before tracing starts
    tracemalloc.start()
    try:
        verdict = detect(source)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.kind == "certificate"
    arrays = peak / (space.n_atoms * space.grid.n_times * 8)
    assert arrays < L4_TRACED_PEAK_ARRAYS


def test_assembly_traced_peak_stays_bounded(monkeypatch):
    source = generate(GeneratorSpec(kind="rademacher_bm", level=4))
    space = source.space
    source.process  # the input is built before tracing starts
    peaks = []
    assemble = pipeline.assemble_decomposition

    def traced(*args, **kwargs):
        tracemalloc.reset_peak()
        try:
            return assemble(*args, **kwargs)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])

    monkeypatch.setattr(pipeline, "assemble_decomposition", traced)
    tracemalloc.start()
    try:
        verdict = detect(source)
    finally:
        tracemalloc.stop()
    assert verdict.kind == "certificate"
    arrays = peaks[0] / (space.n_atoms * space.grid.n_times * 8)
    assert arrays <= L4_ASSEMBLY_TRACED_PEAK_ARRAYS


# Traced peak of an ensemble `detect` on the input of test_doob's stage
# bound (L8, 512 paths, levels 5-8), in (atoms x times) float64 arrays:
# 7.9 measured with numpy 2.4, set inside the stage's finest decomposition;
# 11.9 while the stage kept every level's M and A, the split held J and
# S - J without a big jump, and the free-lunch branch kept its bases.
ENSEMBLE_DETECT_TRACED_PEAK_ARRAYS = 8.5


def test_ensemble_detect_traced_peak_stays_bounded():
    source = generate(GeneratorSpec(kind="rl_fractional", level=8, hurst=0.75, mode="ensemble",
                                    paths=512, seed=1))
    S = source.process  # the input is built before tracing starts
    tracemalloc.start()
    try:
        verdict = detect(source, DetectConfig(levels=(5, 6, 7, 8)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.kind == "free_lunch"
    assert peak / S.values.nbytes < ENSEMBLE_DETECT_TRACED_PEAK_ARRAYS


@pytest.mark.parametrize(
    "spec, levels, kind",
    [(dict(kind="rademacher_bm", level=3), None, "certificate"),
     (dict(kind="rl_fractional", level=6, hurst=0.75, mode="ensemble", paths=256, seed=11),
      (3, 4, 5, 6), "free_lunch")],
    ids=["L3-tree", "ensemble"],
)
def test_detect_copies_no_process_sized_array(monkeypatch, spec, levels, kind):
    """Every array of one row per atom that detect builds is fresh and
    handed over read-only, so no constructor copies it again."""
    source = generate(GeneratorSpec(**spec))
    n_atoms = source.process.space.n_atoms  # the input is built first
    copied = []
    frozen = space_module._frozen

    def spy(a):
        out = frozen(a)
        if out is not a and a.ndim == 2 and a.shape[0] == n_atoms:
            copied.append(a.shape)
        return out

    monkeypatch.setattr(space_module, "_frozen", spy)
    verdict = detect(source, DetectConfig(levels=levels))
    assert verdict.kind == kind
    assert copied == []


def test_free_lunch_frees_each_base_once_it_is_scaled(monkeypatch):
    """No witness the discrete stage finished outlives the scaling of
    its element: the branch holds each strategy's weights once."""
    stage_fn = pipeline.discrete_stage
    bases = []

    def recorded_stage(*args, **kwargs):
        stage = stage_fn(*args, **kwargs)
        bases.extend(weakref.ref(H) for H in stage.witnesses)
        return stage

    alive_after = []
    strategy_sequence = pipeline.StrategySequence

    def counted_sequence(*args, **kwargs):
        gc.collect()
        alive_after.append(sum(ref() is not None for ref in bases))
        return strategy_sequence(*args, **kwargs)

    monkeypatch.setattr(pipeline, "discrete_stage", recorded_stage)
    monkeypatch.setattr(pipeline, "StrategySequence", counted_sequence)
    verdict = detect(generate(GeneratorSpec(kind="rl_fractional", level=3, hurst=0.75)))
    assert verdict.kind == "free_lunch"
    assert len(bases) == 3 and alive_after == [0]


def test_certificate_owns_a_read_only_terminal_value():
    space, S = canonical_walk(3)
    stage = discrete_stage(S, (1, 2, 3), 0.1)
    assert stage.passed and len(stage.certificates) == 3
    for cert in stage.certificates:
        m = cert.m_terminal
        assert m.base is None and not m.flags.writeable
        assert np.array_equal(m, doob_decompose(S, cert.level).M.values[:, -1])
        with pytest.raises(ValueError):
            m[0] = 1.0


@pytest.mark.parametrize(
    "spec, kind",
    [(dict(kind="rademacher_bm", level=2), "certificate"),
     (dict(kind="rl_fractional", level=4, hurst=0.75), "free_lunch")],
)
def test_stage_table_is_built_once_per_detect(monkeypatch, spec, kind):
    calls = []
    stage_table = pipeline._stage_table

    def counted(stage):
        calls.append(stage)
        return stage_table(stage)

    monkeypatch.setattr(pipeline, "_stage_table", counted)
    verdict = detect(generate(GeneratorSpec(**spec)))
    assert verdict.kind == kind
    assert len(calls) == 1
    assert verdict.table == stage_table(calls[0])


@pytest.mark.parametrize(
    "li, vr, fl, message",
    [((2e-4, 3e-4), (1e-4, 1e-4), (0.5, 0.5),
      "position sizes not strictly decreasing below 0.001: (0.0002, 0.0003)"),
     ((3e-3, 2e-3), (1e-4, 1e-4), (0.5, 0.5),
      "position sizes not strictly decreasing below 0.001: (0.003, 0.002)"),
     ((2e-4, 1e-4), (1e-4, 2e-3), (0.5, 0.5), "final drawdown 0.002 not below 0.001"),
     ((2e-4, 1e-4), (1e-4, 1e-4), (0.5, 0.125),
      "win probability dropped below alpha_star=0.25: (0.5, 0.125)")],
)
def test_evidence_names_the_rule_it_breaks(li, vr, fl, message):
    space, _ = canonical_walk(1)
    H = constant_integrand(space, 1.0)
    seq = StrategySequence((H, H), li=li, vr=vr, fl=fl)
    with pytest.raises(InvariantViolation, match="^" + re.escape(message) + "$"):
        FreeLunchEvidence(seq, alpha_star=0.25, levels=(1,))
