"""Release gate: one test per acceptance criterion.

Each test asserts the complete property with the tolerance it ships
with, recomputing every bound from raw arrays rather than trusting the
fields reported by the pipeline.  The frozen constants are outputs of
independent brute-force oracle runs: mean total variation of the
fractional moving-average walk in raw kernel units, from exact
enumeration of all sign paths on the 16-step grid and from 2^18 Monte
Carlo paths (seed 987) on the 256-step grid.
"""

import time

import numpy as np
import pytest

from semimart.cli import main
from semimart.doob import (
    discrete_stage,
    doob_decompose,
    qv_strategy,
    sign_strategy,
)
from semimart.generators import GeneratorSpec, bound_factor_for, generate, rl_normalizer
from semimart.integrands import (
    SimpleIntegrand,
    StrategySequence,
    integrate,
    vr_metric,
)
from semimart.io import first_mismatch, read_ensemble, read_report, write_ensemble
from semimart.komlos import extract_convex, extract_convex_multi
from semimart.pipeline import (
    DetectConfig,
    FreeLunchEvidence,
    SemimartingaleCertificate,
    big_jump_split,
    continuous_stage,
    detect,
)
from semimart.space import (
    AdaptedProcess,
    StoppingTime,
    stop_process,
)
from helpers import (
    GridFunction,
    StepFunction,
    conditional_expectation,
    constant_integrand,
    continuity_probe,
    martingale_l2,
    quadratic_variation,
    recorded_stage,
    sum_by_parts_bound,
)

TOL = 1e-10
RECOVER_TOL = 1e-8
RATIO_RTOL = 0.10
SMALL = 1e-3

# Mean total variation of the raw fractional walk (H = 3/4) on the
# 16-step grid, coarsened to 2, 4, 8, and 16 steps: exact enumeration
# over all 2^16 sign paths.
ORACLE_RAW_TV = (1.1035049609, 2.0346514646, 2.7972646190, 3.4228619590)
ORACLE_EXACT_TV_RATIO = (1.843808, 1.374813, 1.223646)
# Same statistic on the 256-step grid, coarsened to 16..256 steps,
# averaged over 2^18 Monte Carlo sign paths (seed 987).
ORACLE_MC_TV_RATIO = (1.242894, 1.191087, 1.148011, 1.108616)

ALL_KINDS = ("rademacher_bm", "drifted", "rl_fractional", "jump", "deterministic_drift")
SEMIMARTINGALE_KINDS = ("rademacher_bm", "drifted", "jump", "deterministic_drift")


def never(space) -> StoppingTime:
    return StoppingTime(space, np.full(space.n_atoms, space.grid.n_times))


def unit_scaled(S):
    s = S.sup_norm()
    return S.scale(1.0 / s) if s > 1.0 else S


class TestAcceptance:
    def test_exact_identity_suite(self):
        started = time.monotonic()
        for kind in ALL_KINDS:
            for level in (1, 2, 3):
                src = generate(GeneratorSpec(kind=kind, level=level, seed=3))
                space, S = src.space, src.process
                D = doob_decompose(S, level)
                # decomposition identity and starting point
                assert np.abs(D.M.values + D.A.values - S.values).max() <= TOL
                assert np.abs(D.A.values[:, 0]).max() <= TOL
                # martingale residual and predictability, recomputed
                times = space.times
                dM = D.M.increments()
                dA = D.A.increments()
                for j in range(1, space.grid.n_times):
                    prev = times[j - 1]
                    cond = conditional_expectation(space, dM[:, j - 1], prev)
                    assert np.abs(cond).max() <= TOL
                    proj = conditional_expectation(space, dA[:, j - 1], prev)
                    assert np.abs(proj - dA[:, j - 1]).max() <= TOL
                # gain of the squared-increment strategy
                Su = unit_scaled(S)
                H = qv_strategy(Su, level)
                gain = integrate(H, Su)
                qv = quadratic_variation(Su, level)
                corr = 0.5 * (Su.values[:, 0] ** 2 - Su.values[:, -1] ** 2)
                assert np.abs(gain - (0.5 * qv + corr)).max() <= TOL
                # drift-sign strategy identity
                Du = doob_decompose(Su, level)
                h = sign_strategy(Du, never(space))
                lhs = integrate(h, Su)
                rhs = Du.tv + integrate(h, Du.M)
                assert np.abs(lhs - rhs).max() <= TOL
                # terminal energy equals summed increment energy
                e_term = space.expectation(D.M.values[:, -1] ** 2)
                e_incr = sum(space.expectation(dM[:, j] ** 2) for j in range(dM.shape[1]))
                assert abs(e_term - e_incr) <= TOL
                assert abs(martingale_l2(D.M) - e_incr) <= TOL
                # per-step energy split of the source increments
                dS = S.increments()
                for j in range(dS.shape[1]):
                    split = space.expectation(dM[:, j] ** 2) + space.expectation(dA[:, j] ** 2)
                    assert abs(space.expectation(dS[:, j] ** 2) - split) <= TOL
        assert time.monotonic() - started < 5.0

    def test_certified_bounds_recomputed(self, monkeypatch):
        rec = recorded_stage(monkeypatch)
        for kind, scale in (("rademacher_bm", 1.0), ("drifted", 0.125)):
            src = generate(GeneratorSpec(kind=kind, level=3, scale=scale, seed=5))
            space, S = src.space, src.process
            eps = 0.1
            stage = discrete_stage(S, (1, 2, 3), eps)
            assert stage.passed
            n_times = space.grid.n_times
            for cert in stage.certificates:
                D = doob_decompose(S, cert.level)
                assert np.array_equal(D.M.values[:, -1], cert.m_terminal)
                A_stop = stop_process(D.A, cert.rho)
                M_stop = stop_process(D.M, cert.rho)
                tv = np.abs(A_stop.increments()).sum(axis=1)
                assert tv.max() <= cert.C + TOL
                assert space.expectation(M_stop.values[:, -1] ** 2) <= cert.C + TOL
                p_stop = float(space.probs[cert.rho.index < n_times].sum())
                assert p_stop < eps
            rec.exits.clear()
            rec.scripts.clear()
            cs = continuous_stage(S, stage.certificates)
            C = stage.certificates[0].C
            assert len(rec.scripts) == len(rec.exits)
            for m_script, a_script in rec.scripts:
                m_energy = space.expectation(m_script.values[:, -1] ** 2)
                assert m_energy <= 4.0 * C + TOL
                a_tv = np.abs(a_script.increments()).sum(axis=1)
                assert a_tv.max() <= 6.0 * (C + 2.0) + 2.0 * C + TOL
            p_alpha = float(space.probs[cs.alpha.index < n_times].sum())
            assert abs(p_alpha - cs.alpha.prob_finite()) <= TOL
            assert p_alpha <= 4.0 * eps + TOL

    def test_variation_bound_randomized(self):
        rng = np.random.default_rng(20260818)
        violations = 0
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
            f = StepFunction(breaks, fvals)
            g = GridFunction(times, gvals)
            lhs, rhs = sum_by_parts_bound(f, g, times[take])
            if lhs > rhs + TOL:
                violations += 1
        assert violations == 0

    def test_semimartingale_recovery(self):
        mu = 0.5
        runs = {
            "rademacher_bm": GeneratorSpec(kind="rademacher_bm", level=4, seed=2),
            "drifted": GeneratorSpec(kind="drifted", level=4, scale=2.0**-9, mu=mu, seed=2),
            "deterministic_drift": GeneratorSpec(kind="deterministic_drift", level=4, mu=mu),
        }
        verdicts = {}
        for name, spec in runs.items():
            src = generate(spec)
            space, S = src.space, src.process
            started = time.monotonic()
            verdict = detect(src)
            assert time.monotonic() - started < 10.0
            assert isinstance(verdict, SemimartingaleCertificate)
            verdicts[name] = (space, S, verdict)

        space, S, verdict = verdicts["rademacher_bm"]
        assert np.abs(verdict.A.values).max() <= TOL

        space, S, verdict = verdicts["drifted"]
        target = mu * space.times[None, :]
        assert np.abs(verdict.A.values - target).max() <= RECOVER_TOL

        space, S, verdict = verdicts["deterministic_drift"]
        assert np.abs(verdict.M.values).max() <= 1e-12
        assert np.abs(verdict.A.values - S.values).max() <= 1e-12

    def test_free_lunch_detection(self):
        hurst = 0.75
        spec = GeneratorSpec(kind="rl_fractional", level=4, hurst=hurst)
        src = generate(spec)
        space, S = src.space, src.process
        q = spec.scale * rl_normalizer(hurst, space.grid.n_steps)
        B = bound_factor_for(spec)
        tv, qv = [], []
        for n in (1, 2, 3, 4):
            D = doob_decompose(S, n)
            tv.append(space.expectation(D.tv))
            qv.append(space.expectation(D.qv))
        raw = [v * B / q for v in tv]
        for got, expect in zip(raw, ORACLE_RAW_TV):
            assert abs(got - expect) <= 1e-8
        assert all(b > a for a, b in zip(tv, tv[1:]))
        assert all(b < a for a, b in zip(qv, qv[1:]))
        for (a, b), expect in zip(zip(tv, tv[1:]), ORACLE_EXACT_TV_RATIO):
            assert b / a == pytest.approx(expect, rel=RATIO_RTOL)

        verdict = detect(src)
        assert isinstance(verdict, FreeLunchEvidence)
        li, vr, fl = verdict.strategies.li, verdict.strategies.vr, verdict.strategies.fl
        assert all(b < a for a, b in zip(li, li[1:])) and li[-1] < SMALL
        assert vr[-1] < SMALL
        assert verdict.alpha_star > 0
        assert all(p >= verdict.alpha_star for p in fl)

        ens = generate(
            GeneratorSpec(
                kind="rl_fractional", level=8, hurst=hurst, mode="ensemble", paths=16384, seed=11
            )
        )
        assert ens.space.n_atoms >= 10**4
        tv_mc, qv_mc = [], []
        for n in (4, 5, 6, 7, 8):
            D = doob_decompose(ens.process, n, ens.drift_increments(n))
            tv_mc.append(ens.space.expectation(D.tv))
            qv_mc.append(ens.space.expectation(D.qv))
        assert all(b > a for a, b in zip(tv_mc, tv_mc[1:]))
        assert all(b < a for a, b in zip(qv_mc, qv_mc[1:]))
        for (a, b), expect in zip(zip(tv_mc, tv_mc[1:]), ORACLE_MC_TV_RATIO):
            assert b / a == pytest.approx(expect, rel=RATIO_RTOL)

        mc_verdict = detect(ens, DetectConfig(levels=(5, 6, 7, 8)))
        assert isinstance(mc_verdict, FreeLunchEvidence)
        li = mc_verdict.strategies.li
        assert all(b < a for a, b in zip(li, li[1:])) and li[-1] < SMALL
        assert mc_verdict.strategies.vr[-1] < SMALL
        assert all(p >= mc_verdict.alpha_star for p in mc_verdict.strategies.fl)

    def test_big_jump_split(self):
        src = generate(GeneratorSpec(kind="jump", level=3, jump_size=1.5, seed=7))
        space, S = src.space, src.process
        X, J = big_jump_split(S)
        assert np.abs(X.values + J.values - S.values).max() <= 1e-12
        assert np.abs(X.increments()).max() < 1.0
        tvJ_term = np.abs(J.increments()).sum(axis=1)
        assert np.all(np.isfinite(tvJ_term))
        assert tvJ_term.max() >= 1.0

        tvJ = np.concatenate(
            [np.zeros((space.n_atoms, 1)), np.cumsum(np.abs(J.increments()), axis=1)], axis=1
        )
        TVJ = AdaptedProcess(space, tvJ)
        rng = np.random.default_rng(41)
        n_steps = space.grid.n_steps
        for _ in range(100):
            cuts = np.sort(rng.choice(np.arange(1, n_steps), size=2, replace=False))
            mesh = [0, int(cuts[0]), int(cuts[1]), n_steps]
            w = np.empty((space.n_atoms, 3))
            w[:, 0] = rng.uniform(-1, 1)
            for c in (1, 2):
                labels = space.labels[mesh[c - 1]]
                vals = rng.uniform(-1, 1, size=labels.max() + 1)
                w[:, c] = vals[labels]
            Hs = SimpleIntegrand.from_grid_mesh(space, mesh, w)
            Habs = SimpleIntegrand.from_grid_mesh(space, mesh, np.abs(w))
            assert vr_metric(Hs, S) <= vr_metric(Hs, X) + float(integrate(Habs, TVJ).max()) + TOL

        X2, J2 = big_jump_split(X)
        assert np.abs(J2.values).max() == 0.0
        assert np.array_equal(X2.values, X.values)

    def test_convex_extraction_engine(self):
        def check_emissions(cw, n_total):
            for s, blk in enumerate(cw.blocks):
                w = blk.weights
                assert w.min() >= -1e-12
                assert abs(w.sum() - 1.0) <= 1e-12
                assert blk.start >= s
                assert blk.start + len(w) <= n_total

        v = np.array([0.6, -0.2, 0.1])
        alternating = np.array([v if i % 2 == 0 else -v for i in range(30)])
        cw, limit = extract_convex(alternating)
        check_emissions(cw, len(alternating))
        assert np.linalg.norm(limit) <= 1e-8

        w = np.array([0.0, 1.0, -1.0])
        start = 10**9
        perturbed = np.array([v + w / (start + i) for i in range(30)])
        cw, limit = extract_convex(perturbed)
        check_emissions(cw, len(perturbed))
        assert np.linalg.norm(limit - v) <= 1e-8

        a = np.array([v if i % 2 == 0 else -v for i in range(24)])
        b = np.array([2.0 * v + w / (start + i) for i in range(24)])
        cw, limits = extract_convex_multi([a, b])
        check_emissions(cw, len(a))
        last = cw.n_steps - 1
        for seq, limit in zip((a, b), limits):
            again = cw.combination(last, seq)
            assert np.linalg.norm(again - limit) <= 1e-12

    def test_continuity_probe_vanishes(self):
        delta = 0.05
        for kind in SEMIMARTINGALE_KINDS:
            src = generate(GeneratorSpec(kind=kind, level=2, seed=9))
            space, S = src.space, src.process
            seq = StrategySequence(
                tuple(constant_integrand(space, 1.0 / k) for k in range(1, 61))
            )
            stats = continuity_probe(S, seq, delta)
            assert all(a >= b for a, b in zip(stats, stats[1:]))
            assert stats[-1] == 0.0

    def test_cli_round_trip_and_verify(self, tmp_path):
        sources = {
            "walk.jsonl": ["generate", "--kind", "rademacher_bm", "--level", "2", "--seed", "4"],
            "frac.jsonl": ["generate", "--kind", "rl_fractional", "--level", "4"],
            "mc.jsonl": [
                "generate",
                "--kind",
                "rademacher_bm",
                "--level",
                "3",
                "--mode",
                "ensemble",
                "--paths",
                "64",
                "--seed",
                "6",
            ],
        }
        reports = []
        for name, argv in sources.items():
            src = str(tmp_path / name)
            assert main(argv + ["--out", src]) == 0
            data = read_ensemble(src)
            copy = str(tmp_path / ("copy-" + name))
            write_ensemble(copy, data.spec, data.probs, data.xi, data.values)
            with open(src, "rb") as fa, open(copy, "rb") as fb:
                assert fa.read() == fb.read()

            rep_a = str(tmp_path / (name + ".a.json"))
            rep_b = str(tmp_path / (name + ".b.json"))
            rc_a = main(["detect", src, "--out", rep_a])
            rc_b = main(["detect", src, "--out", rep_b])
            assert rc_a == rc_b
            assert rc_a in (0, 3)
            body_a = read_report(rep_a)["body"]
            body_b = read_report(rep_b)["body"]
            assert first_mismatch(body_a, body_b) is None
            reports.append(rep_a)
        for report in reports:
            assert main(["verify", report]) == 0
