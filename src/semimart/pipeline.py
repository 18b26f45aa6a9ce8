"""End-to-end decision: decomposition certificate or free-lunch evidence.

The pass branch extends each certified level's martingale part to the
finest grid, mixes indicator processes of the per-level stopping times
through the convex-combination engine, stops everything at the mixed
exit time alpha, and extracts one more simultaneous combination whose
limits assemble the decomposition M + A = S^alpha.  The fail branch
packages the per-level witness strategies, rescaled to force vanishing
position size and drawdown while the win probability stays put.

Big jumps are split off first and folded back into A at the end; paths
are localized at the first time the continuous part leaves [-1, 1] and
shifted/normalized onto the unit band the discrete stage expects, with
both recorded and undone in the reported decomposition.
"""

import math
from dataclasses import dataclass

import numpy as np

from .doob import (
    BOUND_TOL,
    IDENT_TOL,
    LADDER_MAX,
    StageResult,
    discrete_stage,
    doob_maximal_stop,
    martingale_residual,
)
from .errors import (
    ConvergenceError,
    InvariantViolation,
    ParameterError,
    PreconditionError,
)
from .generators import EnsembleProcess
# integrate and vr_metric stay importable here: perfbench/spans.py wraps them by name
from .integrands import (  # noqa: F401
    StrategySequence,
    integrate,
    li_metric,
    terminal_and_drawdown,
    vr_metric,
    win_probabilities,
)
from .komlos import DEFAULT_WINDOW, extract_convex, extract_convex_multi
from .space import (
    AdaptedProcess,
    StoppingTime,
    check_stopping_time,
    first_hitting_time,
    stop_process,
)

CERT_TOL = 1e-10
FL_TARGET = 1e-3
PAD_COPIES = 3


@dataclass(frozen=True)
class DetectConfig:
    """Knobs of the detection pipeline; defaults follow the CLI."""

    eps: float = 0.1
    tol: float = 1e-8
    levels: tuple | None = None
    ladder_max: float = LADDER_MAX
    window: int = DEFAULT_WINDOW

    def __post_init__(self):
        if not 0 < self.eps < 1:
            raise ParameterError(f"eps must lie in (0, 1), got {self.eps}")
        if not self.tol > 0:
            raise ParameterError(f"tol must be > 0, got {self.tol}")


@dataclass(frozen=True)
class SemimartingaleCertificate:
    """Verified decomposition M + A = S^alpha.

    M is a martingale on the finest grid, A starts at 0 with total
    variation at most constants["tv_bound"]; residuals records the
    float-level slack of each verified identity.
    """

    M: AdaptedProcess
    A: AdaptedProcess
    alpha: StoppingTime
    constants: dict
    residuals: dict
    log: tuple = ()
    table: tuple = ()

    kind = "certificate"

    def __post_init__(self):
        for name, part in (("M", self.M), ("A", self.A)):
            if not part.is_adapted():
                raise InvariantViolation(f"certificate part {name} is not adapted")
        for name, value in self.residuals.items():
            if value > CERT_TOL:
                raise InvariantViolation(f"certificate residual {name} = {value} above {CERT_TOL}")
        tv = float(np.abs(self.A.increments()).sum(axis=1).max())
        if tv > self.constants["tv_bound"] + CERT_TOL:
            raise InvariantViolation(
                f"TV(A) = {tv} exceeds the reported bound {self.constants['tv_bound']}"
            )

    def residual_against(self, S: AdaptedProcess) -> float:
        """Max deviation of M + A from S stopped at alpha."""
        stopped = stop_process(S, self.alpha)
        return float(np.abs(self.M.values + self.A.values - stopped.values).max())


@dataclass(frozen=True)
class FreeLunchEvidence:
    """A sequence of strategies with vanishing size and drawdown whose
    probability of winning at least alpha_star never drops below it."""

    strategies: StrategySequence
    alpha_star: float
    levels: tuple
    log: tuple = ()
    table: tuple = ()

    kind = "free_lunch"

    def __post_init__(self):
        li, vr, fl = self.strategies.li, self.strategies.vr, self.strategies.fl
        if not (li and vr and fl):
            raise ParameterError("evidence requires evaluated diagnostics")
        if any(b >= a for a, b in zip(li, li[1:])) or not li[-1] < FL_TARGET:
            raise InvariantViolation(f"position sizes not strictly decreasing below {FL_TARGET}: {li}")
        if not vr[-1] < FL_TARGET:
            raise InvariantViolation(f"final drawdown {vr[-1]} not below {FL_TARGET}")
        if not self.alpha_star > 0:
            raise InvariantViolation("alpha_star must be positive")
        if any(p < self.alpha_star for p in fl):
            raise InvariantViolation(
                f"win probability dropped below alpha_star={self.alpha_star}: {fl}"
            )


@dataclass(frozen=True)
class Inconclusive:
    """Neither branch closed; reason and log tell why."""

    reason: str
    log: tuple = ()
    table: tuple = ()

    kind = "inconclusive"


def big_jump_split(S: AdaptedProcess) -> tuple[AdaptedProcess, AdaptedProcess]:
    """Split S = X + J with J collecting all increments of size >= 1.

    The boundary case |increment| = 1 counts as a jump, so X's
    increments are strictly below 1 in absolute value.
    """
    dS = S.increments()
    big = np.abs(dS) >= 1.0
    dJ = np.where(big, dS, 0.0)
    zeros = np.zeros((S.values.shape[0], 1))
    J = AdaptedProcess(S.space, np.concatenate([zeros, np.cumsum(dJ, axis=1)], axis=1),
                       S.time_index)
    X = S - J
    if np.abs(X.increments()).max() >= 1.0:
        raise InvariantViolation("split left an increment of size >= 1 in the continuous part")
    return X, J


def extend_martingale(
    D,
    S: AdaptedProcess,
    rho: StoppingTime | None = None,
    C: float | None = None,
) -> tuple[AdaptedProcess, AdaptedProcess]:
    """Extend a level decomposition to the finest grid.

    The martingale part becomes E[M_1 | F_t] at every finest time, the
    drift part the remainder S - M.  Inside each coarse cell the drift
    can wander from its cell-start value by at most 2; when the level's
    stopping time and budget are supplied, the stopped drift is checked
    to stay within C + 2 uniformly.
    """
    space = S.space
    if np.abs(S.values[:, 0]).max() > BOUND_TOL:
        raise PreconditionError("extension requires S_0 = 0; shift the process first")
    if S.sup_norm() > 1.0 + BOUND_TOL:
        raise PreconditionError(
            f"extension requires ||S||_inf <= 1 (got {S.sup_norm()}); normalize first"
        )
    M_ext = AdaptedProcess(space, space.conditional_path(D.M.values[:, -1]))
    A_ext = S - M_ext
    step = 1 << (space.grid.level - D.level)
    anchor_idx = (np.arange(space.grid.n_times) // step) * step
    dev = float(np.abs(A_ext.values - A_ext.values[:, anchor_idx]).max())
    if dev > 2.0 + BOUND_TOL:
        raise InvariantViolation(f"drift wandered {dev} > 2 inside a coarse cell")
    if rho is not None and C is not None:
        stopped_sup = float(np.abs(stop_process(A_ext, rho).values).max())
        if stopped_sup > C + 2.0 + BOUND_TOL:
            raise InvariantViolation(f"stopped drift reaches {stopped_sup} > C + 2 = {C + 2}")
    return M_ext, A_ext


@dataclass(frozen=True)
class StageStep:
    """One extraction step of the continuous stage: the mixed indicator's
    exit time, the step integrand's bounds, and the mixed processes."""

    index: int
    level: int
    start: int
    weights: np.ndarray
    alpha_k: StoppingTime
    p_alpha_k: float
    rbar_terminal: np.ndarray
    sbar_sup: float
    sbar_tv: float
    m_script: AdaptedProcess
    a_script: AdaptedProcess


@dataclass(frozen=True)
class ContinuousStage:
    """All per-step objects plus the selected subsequence and its mixed
    exit time alpha; built only from a fully passing discrete stage."""

    source: AdaptedProcess
    certificates: tuple
    levels: tuple
    eps: float
    C: float
    steps: tuple
    rbar_limit: np.ndarray
    selected: tuple
    alpha: StoppingTime
    p_alpha: float
    log: tuple


def _pad_certificates(certs) -> tuple:
    """Levels beyond the finest grid repeat the finest decomposition, so
    the sequence fed to the extraction gets a saturated constant tail."""
    return tuple(certs) + (certs[-1],) * PAD_COPIES


def continuous_stage(
    source: AdaptedProcess,
    certs,
    tol: float = 1e-8,
    window: int = DEFAULT_WINDOW,
) -> ContinuousStage:
    """Mix the per-level stopped decompositions into the objects the
    final assembly needs, verifying every bound along the way."""
    certs = tuple(certs)
    if not certs:
        raise ParameterError("need at least one certificate")
    if any(not c.passed for c in certs):
        raise PreconditionError("continuous stage requires all certificates to have passed")
    eps = certs[0].eps
    C = certs[0].C
    if any(c.eps != eps or c.C != C for c in certs):
        raise PreconditionError("certificates must share eps and the budget C")
    space = source.space
    n_times = space.grid.n_times
    log = []

    certs = _pad_certificates(certs)
    levels = tuple(c.level for c in certs)
    K = len(certs)
    log.append(f"{K - PAD_COPIES} certificates, padded to {K} by repeating the finest level")

    # indicator of still running: R_t = 1 while t <= rho
    R = np.empty((K, space.n_atoms, n_times))
    grid_idx = np.arange(n_times)
    for i, c in enumerate(certs):
        R[i] = grid_idx[None, :] <= c.rho.index[:, None]
        e_r1 = space.expectation(R[i][:, -1])
        if e_r1 < 1.0 - eps - BOUND_TOL:
            raise InvariantViolation(f"E[R_1] = {e_r1} below 1 - eps at position {i}")

    cw, rbar_limit = extract_convex(
        R[:, :, -1], tol=tol, prob=space.probs, window=window, min_converged=2
    )
    log.extend(cw.log)

    # finest-grid extensions, shared by padded repeats
    ext_cache: dict[int, tuple] = {}
    for i, c in enumerate(certs):
        if id(c) not in ext_cache:
            ext_cache[id(c)] = extend_martingale(c.decomposition, source, rho=c.rho, C=C)
    dM = {k: np.diff(v[0].values, axis=1) for k, v in ext_cache.items()}
    dA = {k: np.diff(v[1].values, axis=1) for k, v in ext_cache.items()}
    dS = source.increments()

    steps = []
    for s in range(cw.n_steps):
        blk = cw.blocks[s]
        mu, idx = blk.weights, blk.indices
        rbar = np.einsum("k,kat->at", mu, R[idx])
        mask = rbar >= 0.5
        count = mask.sum(axis=1)
        alpha_idx = np.where(count == n_times, space.grid.n_times, count - 1)
        alpha_k = StoppingTime(space, alpha_idx)
        if not check_stopping_time(alpha_k):
            raise InvariantViolation(f"mixed exit time at step {s} is not a stopping time")
        p_k = alpha_k.prob_finite()
        if p_k > 2.0 * eps + BOUND_TOL:
            raise InvariantViolation(f"P[alpha_{s} < inf] = {p_k} above 2 eps")
        # predictable step weights of the normalized integrand
        w = np.where(mask[:, 1:], 1.0 / np.where(mask[:, 1:], rbar[:, 1:], 1.0), 0.0)
        sbar_sup = float(w.max())
        if sbar_sup > 2.0 + BOUND_TOL:
            raise InvariantViolation(f"normalized integrand reaches {sbar_sup} > 2 at step {s}")
        sbar_tv = float(np.abs(np.diff(w, axis=1)).sum(axis=1).max()) if w.shape[1] > 1 else 0.0
        if sbar_tv > 3.0 + BOUND_TOL:
            raise InvariantViolation(f"normalized integrand variation {sbar_tv} > 3 at step {s}")
        dN_m = np.zeros_like(dS)
        dN_a = np.zeros_like(dS)
        for j, i in enumerate(idx):
            key = id(certs[i])
            dN_m += mu[j] * R[i][:, 1:] * dM[key]
            dN_a += mu[j] * R[i][:, 1:] * dA[key]
        zeros = np.zeros((space.n_atoms, 1))
        m_script = AdaptedProcess(space, np.concatenate([zeros, np.cumsum(w * dN_m, axis=1)], axis=1))
        a_script = AdaptedProcess(space, np.concatenate([zeros, np.cumsum(w * dN_a, axis=1)], axis=1))
        # the two mixes must reassemble the source stopped at the exit time
        resid = float(
            np.abs(m_script.values + a_script.values - stop_process(source, alpha_k).values).max()
        )
        if resid > IDENT_TOL:
            raise InvariantViolation(f"mix identity off by {resid} at step {s}")
        steps.append(
            StageStep(
                index=s,
                level=levels[blk.start],
                start=blk.start,
                weights=mu,
                alpha_k=alpha_k,
                p_alpha_k=p_k,
                rbar_terminal=rbar[:, -1],
                sbar_sup=sbar_sup,
                sbar_tv=sbar_tv,
                m_script=m_script,
                a_script=a_script,
            )
        )

    # subsequence selection: exact probabilities against the limit
    selected = []
    k = 1
    for s in cw.converged_steps:
        diff = np.abs(steps[s].rbar_terminal - rbar_limit)
        p_dev = float(space.probs[diff >= 1.0 / 15.0].sum())
        if p_dev <= eps * 2.0 ** (-k):
            selected.append(s)
            log.append(f"selected step {s} as k={k}: P[|Rbar_1 - limit| >= 1/15] = {p_dev:g}")
            k += 1
    if len(selected) < 3:
        raise ConvergenceError(
            f"only {len(selected)} steps met the subsequence criterion; need 3"
        )

    alpha = steps[selected[0]].alpha_k
    for s in selected[1:]:
        alpha = alpha.min_with(steps[s].alpha_k)
    p_alpha = alpha.prob_finite()
    if p_alpha > 4.0 * eps + BOUND_TOL:
        raise InvariantViolation(f"P[alpha < inf] = {p_alpha} above 4 eps")
    log.append(f"alpha fixed from {len(selected)} selected steps; P[alpha<inf] = {p_alpha:g}")

    # stopped-mix bounds on the selected steps
    tv_cap = 6.0 * (C + 2.0) + 2.0 * C
    for s in selected:
        st = steps[s]
        m_st = stop_process(st.m_script, alpha)
        a_st = stop_process(st.a_script, alpha)
        resid = float(
            np.abs(m_st.values + a_st.values - stop_process(source, alpha).values).max()
        )
        if resid > IDENT_TOL:
            raise InvariantViolation(f"stopped mix identity off by {resid} at step {s}")
        m_sq = space.expectation(m_st.values[:, -1] ** 2)
        if m_sq > 4.0 * C + BOUND_TOL:
            raise InvariantViolation(f"E[script-M_1^2] = {m_sq} above 4C at step {s}")
        coarse = a_st.restrict(np.arange(0, n_times, 1 << (space.grid.level - st.level)))
        tv = float(np.abs(coarse.increments()).sum(axis=1).max())
        if tv > tv_cap + BOUND_TOL:
            raise InvariantViolation(
                f"level-{st.level} variation {tv} above 6(C+2)+2C = {tv_cap} at step {s}"
            )
    log.append(f"selected-step bounds verified: E[M^2] <= {4 * C:g}, TV <= {tv_cap:g}")

    return ContinuousStage(
        source=source,
        certificates=certs,
        levels=levels,
        eps=eps,
        C=C,
        steps=tuple(steps),
        rbar_limit=rbar_limit,
        selected=tuple(selected),
        alpha=alpha,
        p_alpha=p_alpha,
        log=tuple(log),
    )


def assemble_decomposition(
    stage: ContinuousStage,
    tol: float = 1e-8,
    window: int = DEFAULT_WINDOW,
) -> SemimartingaleCertificate:
    """One simultaneous extraction over the stopped mixed terminals and
    every per-time drift column; the limits define M and A."""
    space = stage.source.space
    alpha = stage.alpha
    stopped_source = stop_process(stage.source, alpha)

    m_stopped = []
    a_stopped = []
    for s in stage.selected:
        m_stopped.append(stop_process(stage.steps[s].m_script, alpha))
        a_stopped.append(stop_process(stage.steps[s].a_script, alpha))

    seqs = [np.stack([m.values[:, -1] for m in m_stopped])]
    for j in range(space.grid.n_times):
        seqs.append(np.stack([a.values[:, j] for a in a_stopped]))
    cw, limits = extract_convex_multi(seqs, tol=tol, prob=space.probs, window=window)

    M = AdaptedProcess(space, space.conditional_path(limits[0]))
    A = AdaptedProcess(space, np.column_stack(limits[1:]))

    resid_sum = float(np.abs(M.values + A.values - stopped_source.values).max())
    resid_mart = martingale_residual(M)
    resid_a0 = float(np.abs(A.values[:, 0]).max())
    tv_cap = 6.0 * (stage.C + 2.0) + 2.0 * stage.C
    log = stage.log + tuple(cw.log) + (
        f"assembled decomposition: |M+A-S^alpha| = {resid_sum:.3g}, "
        f"martingale residual = {resid_mart:.3g}",
    )
    return SemimartingaleCertificate(
        M=M,
        A=A,
        alpha=alpha,
        constants={"C": stage.C, "tv_bound": tv_cap, "eps": stage.eps},
        residuals={"decomposition": resid_sum, "martingale": resid_mart, "A_start": resid_a0},
        log=log,
    )


def _stage_table(stage: StageResult) -> tuple:
    """Per-level summary rows for reports."""
    rows = []
    for i, n in enumerate(stage.levels):
        cert = stage.certificates[i] if i < len(stage.certificates) else None
        rows.append(
            {
                "level": n,
                "qv_mean": stage.qv_means[i],
                "tv_mean": stage.tv_means[i],
                "c1": stage.c1,
                "c2": stage.c2,
                "C": cert.C if cert is not None else None,
                "p_stop": cert.p_stop if cert is not None else None,
            }
        )
    return tuple(rows)


def _alpha_dagger(gains: np.ndarray, probs: np.ndarray) -> float:
    """sup{a > 0: P[G >= a] >= a}, exactly, from the atom gains."""
    pos = gains > 0
    if not pos.any():
        return 0.0
    g = gains[pos]
    p = probs[pos]
    order = np.argsort(-g)
    g = g[order]
    cum = np.cumsum(p[order])
    return float(np.maximum(np.minimum(g, cum), 0.0).max())


def _free_lunch(
    S: AdaptedProcess,
    Y: AdaptedProcess,
    stage: StageResult,
    log: list,
):
    """Scale the failed stage's witnesses into a strategy sequence with
    vanishing size and drawdown; Inconclusive when the logged rule fails."""
    certs = stage.certificates
    eps = stage.eps
    table = _stage_table(stage)
    qv_side = stage.failure.startswith("qv")
    log.append(f"free-lunch branch ({stage.failure}); witnesses from the {'quadratic' if qv_side else 'drift'} side")

    # each strategy is integrated once, against Y here and against S below;
    # terminals, harvests, drawdowns and win odds are all read off those
    bases = []
    harvests = []
    vr_raw = []
    for cert in certs:
        H = cert.witness
        if not qv_side:
            # cap the martingale contribution so the drawdown stays bounded:
            # the maximal inequality puts the cap's failure odds below eps/2
            c2w = math.sqrt(8.0 * stage.c1 / eps)
            tau_w = doob_maximal_stop(cert.decomposition, H, c2w)
            H = H.truncate(tau_w)
        terminal, drawdown = terminal_and_drawdown(H, Y)
        bases.append(H)
        harvests.append(float(Y.space.expectation(terminal)))
        vr_raw.append(drawdown)
    log.append("expected harvest per level: " + ", ".join(f"{m:.6g}" for m in harvests))

    li_raw = [li_metric(H) for H in bases]
    if min(li_raw) <= 0:
        return Inconclusive("a witness strategy vanishes identically", tuple(log), table)
    eps_end = 0.5 * FL_TARGET * li_raw[-1] / max(li_raw[-1], vr_raw[-1])
    increasing = all(b > a > 0 for a, b in zip(harvests, harvests[1:]))
    n = len(bases)
    if increasing and n > 1:
        scales_li = [eps_end * harvests[-1] / m for m in harvests]
        log.append("scaling inversely to the growing harvest")
    else:
        scales_li = [eps_end * 2.0 ** (n - 1 - i) for i in range(n)]
        log.append("harvest not strictly increasing; geometric scaling")
    factors = [t / l for t, l in zip(scales_li, li_raw)]
    elements = [H.scale(f) for H, f in zip(bases, factors)]

    gains, drawdowns = zip(*(terminal_and_drawdown(H, S) for H in elements))
    daggers = [_alpha_dagger(g, S.space.probs) for g in gains]
    log.append("win thresholds per level: " + ", ".join(f"{a:.6g}" for a in daggers))
    if min(daggers) <= 0:
        return Inconclusive(
            "a witness level has no positive-gain mass; the scaled sequence "
            "cannot certify a uniform win probability",
            tuple(log),
            table,
        )
    alpha_star = 0.5 * min(daggers)
    seq = StrategySequence(
        tuple(elements),
        li=tuple(li_metric(H) for H in elements),
        vr=drawdowns,
        fl=tuple(win_probabilities(gains, S.space.probs, alpha_star)),
        fl_threshold=alpha_star,
        notes=tuple(log),
    )
    log.append(
        f"alpha* = {alpha_star:.6g}; li = {[f'{x:.3g}' for x in seq.li]}, "
        f"vr = {[f'{x:.3g}' for x in seq.vr]}, fl = {[f'{x:.3g}' for x in seq.fl]}"
    )
    ok = (
        all(b < a for a, b in zip(seq.li, seq.li[1:]))
        and seq.li[-1] < FL_TARGET
        and seq.vr[-1] < FL_TARGET
        and all(p >= alpha_star for p in seq.fl)
    )
    if not ok:
        return Inconclusive("scaled witnesses break the evidence rule against the original process",
                            tuple(log), table)
    return FreeLunchEvidence(
        strategies=seq,
        alpha_star=alpha_star,
        levels=stage.levels,
        log=tuple(log),
        table=table,
    )


def _coerce_source(source):
    if isinstance(source, EnsembleProcess):
        return source.process, source.decomposer(), True
    if isinstance(source, AdaptedProcess):
        return source, None, False
    space, S = source
    if not isinstance(S, AdaptedProcess):
        raise ParameterError("source must be an adapted process or an ensemble")
    return S, None, False


def _require_adapted(S: AdaptedProcess) -> None:
    """Reject values that peek past their filtration, a non-constant S_0 included."""
    bad = S.nonadapted_at()
    if bad is not None:
        c, a = bad
        cell = S.space.labels[S.time_index[c]]
        first = int(np.argmax(cell == cell[a]))
        raise ParameterError(
            f"atom {a}.v[{c}] = {S.values[a, c]:.17g} differs from atom {first}.v[{c}] = "
            f"{S.values[first, c]:.17g} in the same cell at time index {S.time_index[c]}: "
            "the source is not adapted")


def detect(source, config: DetectConfig | None = None):
    """Run the full dichotomy on a process and return one of the three verdicts;
    bad input, such as a source that is not adapted, raises ParameterError."""
    config = config or DetectConfig()
    S, decomposer, is_ensemble = _coerce_source(source)
    _require_adapted(S)
    space = S.space
    log = []

    X, J = big_jump_split(S)
    n_jumps = int((np.abs(S.increments()) >= 1.0).sum())
    if n_jumps:
        log.append(f"split off {n_jumps} big jumps")

    lam = first_hitting_time(X, np.abs(X.values) > 1.0)
    X_stopped = stop_process(X, lam)
    p_lam = lam.prob_finite()
    if p_lam:
        log.append(f"localized at the first exit from [-1, 1]: P[lambda<inf] = {p_lam:g}")
    x0 = X_stopped.values[:, 0].copy()
    shifted = X_stopped.shift(-x0)
    s_norm = max(1.0, shifted.sup_norm())
    Y = shifted.scale(1.0 / s_norm)
    if s_norm > 1.0:
        log.append(f"normalized the localized path onto the unit band (factor {s_norm:g})")

    finest = space.grid.level
    levels = config.levels or tuple(range(1, finest + 1))

    stage = discrete_stage(Y, levels, config.eps, config.ladder_max, decomposer=decomposer)
    log.extend(stage.log)
    table = _stage_table(stage)

    if not stage.passed:
        return _free_lunch(S, Y, stage, log)

    if is_ensemble:
        return Inconclusive(
            "all levels certified on the sampled filtration; certificates are "
            "only issued on the exact tree, rerun in exact mode for one",
            tuple(log),
            table,
        )

    try:
        cstage = continuous_stage(Y, stage.certificates, tol=config.tol, window=config.window)
        inner = assemble_decomposition(cstage, tol=config.tol, window=config.window)
    except ConvergenceError as exc:
        log.append(f"extraction failed to converge: {exc}")
        return Inconclusive("convex-combination extraction did not converge", tuple(log), table)
    log.extend(inner.log[len(cstage.log):])

    # fold the normalization and the jumps back in:
    # M + A = s(script-M + script-A) + X_0 + J^(alpha ^ lambda) = S^(alpha ^ lambda)
    alpha_total = inner.alpha.min_with(lam)
    M = inner.M.scale(s_norm).shift(x0)
    A = inner.A.scale(s_norm) + stop_process(J, alpha_total)
    stopped = stop_process(S, alpha_total)
    resid_sum = float(np.abs(M.values + A.values - stopped.values).max())
    resid_mart = martingale_residual(M)
    tv_j = float(np.abs(stop_process(J, alpha_total).increments()).sum(axis=1).max())
    tv_bound = s_norm * inner.constants["tv_bound"] + tv_j
    log.append(
        f"folded back jumps and normalization: s = {s_norm:g}, TV(J) = {tv_j:g}, "
        f"total TV bound {tv_bound:g}"
    )
    return SemimartingaleCertificate(
        M=M,
        A=A,
        alpha=alpha_total,
        constants={
            "C": inner.constants["C"],
            "tv_bound": tv_bound,
            "eps": config.eps,
            "normalization": s_norm,
            "p_localized": p_lam,
        },
        residuals={
            "decomposition": resid_sum,
            "martingale": resid_mart,
            "A_start": float(np.abs(A.values[:, 0]).max()),
        },
        log=tuple(log),
        table=table,
    )
