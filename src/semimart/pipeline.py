"""End-to-end decision: decomposition certificate or free-lunch evidence.

The pass branch extends each certified level's martingale part to the
finest grid, mixes indicator processes of the per-level stopping times
through the convex-combination engine, stops everything at the mixed
exit time alpha, and extracts one more simultaneous combination whose
limits assemble the decomposition M + A = S^alpha.  The fail branch
rescales the discrete stage's finished witnesses to force vanishing
position size and drawdown while the win probability stays put.

Big jumps are split off first and folded back into A at the end; paths
are localized at the first time the continuous part leaves [-1, 1] and
shifted/normalized onto the unit band the discrete stage expects, with
both recorded and undone in the reported decomposition.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .doob import (
    BOUND_TOL,
    IDENT_TOL,
    LADDER_BASE,
    LADDER_MAX,
    StageResult,
    _identity_error,
    discrete_stage,
    martingale_residual,
)
from .errors import (
    ConvergenceError,
    InvariantViolation,
    ParameterError,
    PreconditionError,
)
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
    require_stopping_time,
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
        if not (math.isfinite(self.ladder_max) and self.ladder_max >= LADDER_BASE):
            raise ParameterError(
                f"ladder_max must be finite and >= {LADDER_BASE:g}, got {self.ladder_max}"
            )
        if not self.window >= 2:
            raise ParameterError(f"window must be >= 2, got {self.window}")


@dataclass(frozen=True)
class SemimartingaleCertificate:
    """Verified decomposition M + A = S^alpha.

    M is a martingale on the finest grid, A starts at 0 with total
    variation at most constants["tv_bound"]; residuals records the
    float-level slack of each verified identity.  The caller supplies the
    "decomposition" residual against S^alpha; the "martingale" and
    "A_start" residuals are computed here from M and A.
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
        residuals = {
            **self.residuals,
            "martingale": martingale_residual(self.M),
            "A_start": float(np.abs(self.A.values[:, 0]).max()),
        }
        object.__setattr__(self, "residuals", residuals)
        for name, value in residuals.items():
            if value > CERT_TOL:
                raise InvariantViolation(f"certificate residual {name} = {value} above {CERT_TOL}")
        tv = float(np.abs(self.A.increments()).sum(axis=1).max())
        if tv > self.constants["tv_bound"] + CERT_TOL:
            raise InvariantViolation(
                f"TV(A) = {tv} exceeds the reported bound {self.constants['tv_bound']}"
            )


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
        seq = self.strategies
        if not (seq.li and seq.vr and seq.fl):
            raise ParameterError("evidence requires evaluated diagnostics")
        broken = _broken_evidence_rule(seq, self.alpha_star)
        if broken:
            raise InvariantViolation(broken)
        if not self.alpha_star > 0:
            raise InvariantViolation("alpha_star must be positive")


def _broken_evidence_rule(seq: StrategySequence, alpha_star: float) -> str | None:
    """The first free-lunch evidence rule the sequence breaks, or None:
    li strictly decreasing and below FL_TARGET, the final vr below it,
    and every fl at least alpha_star."""
    li, vr, fl = seq.li, seq.vr, seq.fl
    if not (all(b < a for a, b in zip(li, li[1:])) and li[-1] < FL_TARGET):
        return f"position sizes not strictly decreasing below {FL_TARGET}: {li}"
    if not vr[-1] < FL_TARGET:
        return f"final drawdown {vr[-1]} not below {FL_TARGET}"
    if not all(p >= alpha_star for p in fl):
        return f"win probability dropped below alpha_star={alpha_star}: {fl}"
    return None


def _tv_cap(C: float) -> float:
    """The certified bound 6(C+2)+2C on the drift's total variation."""
    return 6.0 * (C + 2.0) + 2.0 * C


@dataclass(frozen=True)
class Inconclusive:
    """Neither branch closed; reason and log tell why."""

    reason: str
    log: tuple = ()
    table: tuple = ()

    kind = "inconclusive"


_ZERO = np.zeros(1)
_ZERO.setflags(write=False)


def big_jump_split(S: AdaptedProcess) -> tuple[AdaptedProcess, AdaptedProcess]:
    """Split S = X + J with J collecting all increments of size >= 1.

    The boundary case |increment| = 1 counts as a jump, so X's
    increments are strictly below 1 in absolute value.  Without a big
    jump, X is S itself and J one read-only zero, broadcast.
    """
    dS = S.increments()
    big = np.abs(dS) >= 1.0
    if not big.any():
        return S, AdaptedProcess(S.space, np.broadcast_to(_ZERO, S.values.shape), S.time_index)
    dJ = np.where(big, dS, 0.0)
    zeros = np.zeros((S.values.shape[0], 1))
    J = AdaptedProcess(S.space, np.concatenate([zeros, np.cumsum(dJ, axis=1)], axis=1),
                       S.time_index)
    X = S - J
    if np.abs(X.increments()).max() >= 1.0:
        raise InvariantViolation("split left an increment of size >= 1 in the continuous part")
    return X, J


def _require_extendable(S: AdaptedProcess, rhos=()) -> None:
    """Refuse what `extend_martingale` refuses as input: S off the unit
    band, or a level's rho that is no stopping time on S's space."""
    if np.abs(S.values[:, 0]).max() > BOUND_TOL:
        raise PreconditionError("extension requires S_0 = 0; shift the process first")
    if S.sup_norm() > 1.0 + BOUND_TOL:
        raise PreconditionError(
            f"extension requires ||S||_inf <= 1 (got {S.sup_norm()}); normalize first"
        )
    for rho in rhos:
        require_stopping_time(rho, S.space)


def extend_martingale(
    level: int,
    m_terminal: np.ndarray,
    S: AdaptedProcess,
    rho: StoppingTime | None = None,
    C: float | None = None,
) -> tuple[AdaptedProcess, AdaptedProcess]:
    """Extend a level-``level`` decomposition, given by its terminal
    martingale value M_1 (one per atom), to the finest grid.

    The martingale part becomes E[M_1 | F_t] at every finest time, the
    drift part the remainder S - M; M_1 and the level are all this reads
    of the level decomposition, which is why a `StageCertificate` keeps
    only those.  Inside each coarse cell the drift can wander from its
    cell-start value by at most 2; when the level's stopping time and
    budget are supplied, the stopped drift is checked to stay within
    C + 2 uniformly.
    """
    space = S.space
    _require_extendable(S)
    M_ext = AdaptedProcess(space, space.conditional_path(m_terminal))
    A_ext = S - M_ext
    step = 1 << (space.grid.level - level)
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
    """One extraction step of the continuous stage: the level of its
    first block member, the mixed indicator's exit time and terminal
    value, and the step integrand's bounds.  The step's scripts are not
    kept; see `ContinuousStage`."""

    level: int
    alpha_k: StoppingTime
    p_alpha_k: float
    rbar_terminal: np.ndarray
    sbar_sup: float
    sbar_tv: float


@dataclass(frozen=True)
class ContinuousStage:
    """All per-step objects plus the selected subsequence and its mixed
    exit time alpha; built only from a fully passing discrete stage.

    ``stopped_source`` is S^alpha.  For each selected step, in the order
    of ``selected``, ``stopped_m`` holds the terminal value of its
    script-M stopped at alpha (one per atom) and ``stopped_a`` its
    script-A stopped at alpha: all the assembly reads of the scripts.
    Where alpha stops no atom, ``stopped_source`` is the source and each
    stopped A the step's own script, shared.  The stage keeps no other
    script and no certified level: `continuous_stage` builds each level's
    stopped increments once and frees them after the last step that
    weights the level."""

    eps: float
    C: float
    steps: tuple
    rbar_limit: np.ndarray
    selected: tuple
    alpha: StoppingTime
    p_alpha: float
    stopped_source: AdaptedProcess
    stopped_m: tuple
    stopped_a: tuple
    log: tuple


def _stopped_increments(cert, source: AdaptedProcess, C: float, running: np.ndarray):
    """The level's finest-grid martingale and drift increments, stopped at
    its rho by the running indicator."""
    M_ext, A_ext = extend_martingale(cert.level, cert.m_terminal, source, rho=cert.rho, C=C)
    return running[:, 1:] * M_ext.increments(), running[:, 1:] * A_ext.increments()


def _script(space, dN: np.ndarray, w: np.ndarray) -> AdaptedProcess:
    """The running sum of w * dN from 0, built in place; dN is consumed."""
    dN *= w
    values = np.zeros((space.n_atoms, dN.shape[1] + 1))
    np.cumsum(dN, axis=1, out=values[:, 1:])
    values.setflags(write=False)  # fresh, so the process keeps it uncopied
    return AdaptedProcess(space, values)


def _mixed(inc: list, part: int, mu: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """sum_j mu_j * inc[idx_j][part] over the nonzero weights, accumulated
    in block order.  R is 0/1 and mu >= 0, so mu * (R dM) equals (mu R) dM
    up to the sign of a zero, which the +0 accumulator absorbs.  The
    accumulator never holds -0 and every increment is finite, so a zero
    weight's term, a signed zero, would leave it as it is: the levels it
    names need not exist."""
    live = np.flatnonzero(mu)
    out = np.zeros_like(inc[idx[live[0]]][part])
    for j in live:
        out += mu[j] * inc[idx[j]][part]
    return out


def _rbar(mu: np.ndarray, idx: np.ndarray, R: np.ndarray) -> np.ndarray:
    """The mixed running indicator of a block, over its whole block."""
    return np.einsum("k,kat->at", mu, R[idx])


def _exit_time(s: int, mu: np.ndarray, idx: np.ndarray, R: np.ndarray, space,
               eps: float) -> tuple[StoppingTime, float, np.ndarray]:
    """Pass 1 of step s: the mixed indicator's exit time alpha_k, checked,
    P[alpha_k < inf] and the indicator's terminal value Rbar_1."""
    n_times = space.grid.n_times
    rbar = _rbar(mu, idx, R)
    count = (rbar >= 0.5).sum(axis=1)
    alpha_k = StoppingTime(space, np.where(count == n_times, n_times, count - 1))
    if not check_stopping_time(alpha_k):
        raise InvariantViolation(f"mixed exit time at step {s} is not a stopping time")
    p_k = alpha_k.prob_finite()
    if p_k > 2.0 * eps + BOUND_TOL:
        raise InvariantViolation(f"P[alpha_{s} < inf] = {p_k} above 2 eps")
    return alpha_k, p_k, rbar[:, -1].copy()  # a view would keep all of rbar alive


def _mix_step(s: int, mu: np.ndarray, idx: np.ndarray, R: np.ndarray, inc: list,
              source: AdaptedProcess, alpha_k: StoppingTime):
    """Pass 2 of step s: mix the levels idx (one per block position) with
    weights mu into script-M and script-A, and check every bound of the
    step.  Returns the integrand's sup and variation and the two scripts;
    the mixed indicator and the integrand weights die with the call."""
    space = source.space
    rbar = _rbar(mu, idx, R)  # pass 1's indicator, bit for bit
    mask = rbar >= 0.5
    # predictable step weights of the normalized integrand
    w = np.where(mask[:, 1:], 1.0 / np.where(mask[:, 1:], rbar[:, 1:], 1.0), 0.0)
    del rbar, mask
    sbar_sup = float(w.max())
    if sbar_sup > 2.0 + BOUND_TOL:
        raise InvariantViolation(f"normalized integrand reaches {sbar_sup} > 2 at step {s}")
    sbar_tv = float(np.abs(np.diff(w, axis=1)).sum(axis=1).max()) if w.shape[1] > 1 else 0.0
    if sbar_tv > 3.0 + BOUND_TOL:
        raise InvariantViolation(f"normalized integrand variation {sbar_tv} > 3 at step {s}")
    m_script = _script(space, _mixed(inc, 0, mu, idx), w)
    a_script = _script(space, _mixed(inc, 1, mu, idx), w)
    del w
    # the two mixes must reassemble the source stopped at the exit time
    resid = float(_identity_error(m_script.values, a_script.values, stop_process(source, alpha_k).values))
    if resid > IDENT_TOL:
        raise InvariantViolation(f"mix identity off by {resid} at step {s}")
    return sbar_sup, sbar_tv, m_script, a_script


def _stopped_mix(s: int, level: int, m_script: AdaptedProcess, a_script: AdaptedProcess,
                 alpha: StoppingTime, stopped_source: AdaptedProcess, C: float):
    """The bounds of selected step s, stopped at alpha; returns what the
    assembly reads: the stopped M's terminal value and the stopped A."""
    space = stopped_source.space
    m_st = stop_process(m_script, alpha)
    a_st = stop_process(a_script, alpha)
    resid = float(_identity_error(m_st.values, a_st.values, stopped_source.values))
    if resid > IDENT_TOL:
        raise InvariantViolation(f"stopped mix identity off by {resid} at step {s}")
    m_sq = space.expectation(m_st.values[:, -1] ** 2)
    if m_sq > 4.0 * C + BOUND_TOL:
        raise InvariantViolation(f"E[script-M_1^2] = {m_sq} above 4C at step {s}")
    # a strided view of the level-grid times, not a gathered copy
    dA = np.diff(a_st.values[:, ::1 << (space.grid.level - level)], axis=1)
    tv = float(np.abs(dA, out=dA).sum(axis=1).max())
    if tv > _tv_cap(C) + BOUND_TOL:
        raise InvariantViolation(
            f"level-{level} variation {tv} above 6(C+2)+2C = {_tv_cap(C)} at step {s}"
        )
    return m_st.values[:, -1].copy(), a_st


def continuous_stage(
    source: AdaptedProcess,
    certs,
    tol: float = 1e-8,
    window: int = DEFAULT_WINDOW,
) -> ContinuousStage:
    """Mix the per-level stopped decompositions into the objects the
    final assembly needs, verifying every bound along the way.

    Each certified level contributes one indicator 1[0, rho_n] and one
    pair of stopped finest-grid increments.  The sequence fed to the
    extraction repeats the finest level PAD_COPIES more times, as an
    index ``pos`` into the levels rather than as copies.  Two passes run
    over the extraction's blocks.  Pass 1 fixes each step's exit time
    and Rbar_1, and so the selected subsequence and alpha, before any
    script exists.  Pass 2 builds each step's scripts and checks them,
    checks a selected step's scripts stopped at alpha, and keeps only
    what the assembly reads of those.  The extraction takes forward
    convex combinations (step s mixes positions s, s+1, ... only), so a
    level's increments are built at the first step that weights it and
    freed after the last; a level no step weights is built once, for
    the checks of its extension, and dropped."""
    certs = tuple(certs)
    if not certs:
        raise ParameterError("need at least one certificate")
    eps = certs[0].eps
    C = certs[0].C
    if any(c.eps != eps or c.C != C for c in certs):
        raise PreconditionError("certificates must share eps and the budget C")
    space = source.space
    n_times = space.grid.n_times
    log = []

    n = len(certs)
    pos = np.minimum(np.arange(n + PAD_COPIES), n - 1)
    log.append(f"{n} certificates, padded to {len(pos)} by repeating the finest level")

    # indicator of still running: R_t = 1 while t <= rho; bool, cast to
    # float only where a float reduction reads it
    R = np.empty((n, space.n_atoms, n_times), dtype=bool)
    grid_idx = np.arange(n_times)
    for i, c in enumerate(certs):
        R[i] = grid_idx[None, :] <= c.rho.index[:, None]
        e_r1 = space.expectation(R[i][:, -1].astype(float))
        if e_r1 < 1.0 - eps - BOUND_TOL:
            raise InvariantViolation(f"E[R_1] = {e_r1} below 1 - eps at position {i}")

    cw, rbar_limit = extract_convex(R[pos, :, -1].astype(float), tol=tol, prob=space.probs, window=window)
    log.extend(cw.log)
    # the extensions' refusals of bad input come before any step's checks
    _require_extendable(source, [c.rho for c in certs])
    blocks = [(blk.weights, pos[blk.indices]) for blk in cw.blocks]

    alpha_ks, p_ks, rbar_1s = zip(*(_exit_time(s, mu, idx, R, space, eps)
                                    for s, (mu, idx) in enumerate(blocks)))

    # subsequence selection: exact probabilities against the limit
    selected = []
    k = 1
    for s in cw.converged_steps:
        diff = np.abs(rbar_1s[s] - rbar_limit)
        p_dev = float(space.probs[diff >= 1.0 / 15.0].sum())
        if p_dev <= eps * 2.0 ** (-k):
            selected.append(s)
            log.append(f"selected step {s} as k={k}: P[|Rbar_1 - limit| >= 1/15] = {p_dev:g}")
            k += 1
    # too short a selection raises only once pass 2 has checked every step
    alpha = None
    if len(selected) >= 3:
        alpha = alpha_ks[selected[0]]
        for s in selected[1:]:
            alpha = alpha.min_with(alpha_ks[s])
        p_alpha = alpha.prob_finite()
        if p_alpha > 4.0 * eps + BOUND_TOL:
            raise InvariantViolation(f"P[alpha < inf] = {p_alpha} above 4 eps")
        log.append(f"alpha fixed from {len(selected)} selected steps; P[alpha<inf] = {p_alpha:g}")
        stopped_source = stop_process(source, alpha)

    # a level's increments live from the first step that weights it to the
    # last; one that no step weights is built once, for its extension's checks
    weighted = [[s for s, (mu, idx) in enumerate(blocks) if mu[idx == i].any()] for i in range(n)]
    for i in range(n):
        if not weighted[i]:
            _stopped_increments(certs[i], source, C, R[i])
    inc = [None] * n
    steps, stopped_m, stopped_a = [], [], []
    for s, (mu, idx) in enumerate(blocks):
        for i in range(n):
            if weighted[i] and weighted[i][0] == s:
                inc[i] = _stopped_increments(certs[i], source, C, R[i])
        sbar_sup, sbar_tv, m_script, a_script = _mix_step(s, mu, idx, R, inc, source, alpha_ks[s])
        level = certs[idx[0]].level
        steps.append(StageStep(level, alpha_ks[s], p_ks[s], rbar_1s[s], sbar_sup, sbar_tv))
        if alpha is not None and s in selected:
            m_terminal, a_st = _stopped_mix(s, level, m_script, a_script, alpha, stopped_source, C)
            stopped_m.append(m_terminal)
            stopped_a.append(a_st)
        del m_script, a_script
        for i in range(n):
            if weighted[i] and weighted[i][-1] == s:
                inc[i] = None
    del R, inc
    if alpha is None:
        raise ConvergenceError(
            f"only {len(selected)} steps met the subsequence criterion; need 3"
        )
    log.append(f"selected-step bounds verified: E[M^2] <= {4 * C:g}, TV <= {_tv_cap(C):g}")

    return ContinuousStage(
        eps=eps,
        C=C,
        steps=tuple(steps),
        rbar_limit=rbar_limit,
        selected=tuple(selected),
        alpha=alpha,
        p_alpha=p_alpha,
        stopped_source=stopped_source,
        stopped_m=tuple(stopped_m),
        stopped_a=tuple(stopped_a),
        log=tuple(log),
    )


def _assembly_limits(stage: ContinuousStage, tol: float, window: int):
    """The assembly's extraction and its limits: the stopped mixed
    terminals first, then one drift column per time.  The stage hands
    over the terminals as vectors and each selected step's stopped A;
    each sequence is stacked when the extraction reads it, and dies with
    the read."""
    space = stage.stopped_source.space
    seqs = [lambda: np.stack(stage.stopped_m)]
    seqs += [lambda j=j: np.stack([a.values[:, j] for a in stage.stopped_a])
             for j in range(space.grid.n_times)]
    return extract_convex_multi(seqs, tol=tol, prob=space.probs, window=window)


def assemble_decomposition(
    stage: ContinuousStage,
    tol: float = 1e-8,
    window: int = DEFAULT_WINDOW,
) -> SemimartingaleCertificate:
    """One simultaneous extraction over the stopped mixed terminals and
    every per-time drift column; the limits define M and A."""
    space = stage.stopped_source.space
    cw, limits = _assembly_limits(stage, tol, window)
    M = AdaptedProcess(space, space.conditional_path(limits[0]))
    A_vals = np.column_stack(limits[1:])
    A_vals.setflags(write=False)  # fresh, so the process keeps it uncopied
    A = AdaptedProcess(space, A_vals)
    del limits  # freed before the certificate's checks, which set the peak nearby

    resid_sum = float(np.abs(M.values + A.values - stage.stopped_source.values).max())
    return SemimartingaleCertificate(
        M=M,
        A=A,
        alpha=stage.alpha,
        constants={"C": stage.C, "tv_bound": _tv_cap(stage.C), "eps": stage.eps},
        residuals={"decomposition": resid_sum},
        log=stage.log + tuple(cw.log),
    )


def _stage_table(stage: StageResult) -> tuple:
    """One report row per level of the stage; a failed stage certifies no
    level, so its rows carry no budget C and a stop probability of 0."""
    C = max(stage.c1, stage.c2) if stage.passed else None
    p_stops = stage.p_stops or (0.0,) * len(stage.levels)
    return tuple(
        {"level": n, "qv_mean": qv, "tv_mean": tv, "c1": stage.c1, "c2": stage.c2,
         "C": C, "p_stop": p}
        for n, qv, tv, p in zip(stage.levels, stage.qv_means, stage.tv_means, p_stops)
    )


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
    bases: list,
    log: list,
    table: tuple,
):
    """Scale the witnesses ``bases``, finished by ``discrete_stage``, into a
    strategy sequence with vanishing size and drawdown; Inconclusive when
    the logged rule fails.  ``table`` is the stage's report rows.  Each
    base is dropped from ``bases`` once its scaled element is built, so a
    caller that holds them nowhere else frees their weights there."""
    qv_side = stage.failure.startswith("qv")
    log.append(f"free-lunch branch ({stage.failure}); witnesses from the {'quadratic' if qv_side else 'drift'} side")

    # each strategy is integrated once, against Y here and against S below;
    # terminals, harvests, drawdowns and win odds are all read off those
    terminals, vr_raw = zip(*(terminal_and_drawdown(H, Y) for H in bases))
    harvests = [float(Y.space.expectation(t)) for t in terminals]
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
    elements = []
    for i, (t, l) in enumerate(zip(scales_li, li_raw)):
        elements.append(bases[i].scale(t / l))
        bases[i] = None

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
    )
    log.append(
        f"alpha* = {alpha_star:.6g}; li = {[f'{x:.3g}' for x in seq.li]}, "
        f"vr = {[f'{x:.3g}' for x in seq.vr]}, fl = {[f'{x:.3g}' for x in seq.fl]}"
    )
    if _broken_evidence_rule(seq, alpha_star):
        return Inconclusive("scaled witnesses break the evidence rule against the original process",
                            tuple(log), table)
    return FreeLunchEvidence(
        strategies=seq,
        alpha_star=alpha_star,
        levels=stage.levels,
        log=tuple(log),
        table=table,
    )


def detect(source, config: DetectConfig | None = None):
    """Run the full dichotomy on a `generators.Source` and return one of the
    three verdicts; bad input, such as a source that is not adapted, raises
    ParameterError."""
    config = config or DetectConfig()
    S = source.process
    space = S.space
    log = []

    # one name through split, stop, shift and scale keeps one array alive
    Y, J = big_jump_split(S)
    n_jumps = int((np.abs(S.increments()) >= 1.0).sum())
    if n_jumps:
        log.append(f"split off {n_jumps} big jumps")

    lam = first_hitting_time(Y, np.abs(Y.values) > 1.0)
    Y = stop_process(Y, lam)
    p_lam = lam.prob_finite()
    if p_lam:
        log.append(f"localized at the first exit from [-1, 1]: P[lambda<inf] = {p_lam:g}")
    x0 = Y.values[:, 0].copy()
    Y = Y.shift(-x0)
    s_norm = max(1.0, Y.sup_norm())
    Y = Y.scale(1.0 / s_norm)
    if s_norm > 1.0:
        log.append(f"normalized the localized path onto the unit band (factor {s_norm:g})")

    finest = space.grid.level
    levels = config.levels or tuple(range(1, finest + 1))

    stage = discrete_stage(Y, levels, config.eps, config.ladder_max, drift=source.drift_increments)
    log.extend(stage.log)
    table = _stage_table(stage)

    if not stage.passed:
        # the branch takes the witnesses over, so each is freed once it is scaled
        witnesses = list(stage.witnesses)
        stage = replace(stage, witnesses=())
        return _free_lunch(S, Y, stage, witnesses, log, table)

    if not stage.certificates:  # every level analytic: a sampled ensemble
        return Inconclusive(
            "all levels certified on the sampled filtration; certificates are "
            "only issued on the exact tree, rerun in exact mode for one",
            tuple(log),
            table,
        )

    try:
        cstage = continuous_stage(Y, stage.certificates, tol=config.tol, window=config.window)
        del stage  # the table is built; free the level decompositions before assembly
        inner = assemble_decomposition(cstage, tol=config.tol, window=config.window)
    except ConvergenceError as exc:
        log.append(f"extraction failed to converge: {exc}")
        return Inconclusive("convex-combination extraction did not converge", tuple(log), table)
    log.extend(inner.log[len(cstage.log):])
    del cstage  # the steps' scripts and the stopped mixes are not read again
    log.append(
        f"assembled decomposition: |M+A-S^alpha| = {inner.residuals['decomposition']:.3g}, "
        f"martingale residual = {inner.residuals['martingale']:.3g}"
    )

    # fold the normalization and the jumps back in:
    # M + A = s(script-M + script-A) + X_0 + J^(alpha ^ lambda) = S^(alpha ^ lambda)
    alpha_total = inner.alpha.min_with(lam)
    J_stopped = stop_process(J, alpha_total)
    M = inner.M.scale(s_norm).shift(x0)
    A = inner.A.scale(s_norm) + J_stopped
    stopped = stop_process(S, alpha_total)
    resid_sum = float(np.abs(M.values + A.values - stopped.values).max())
    tv_j = float(np.abs(J_stopped.increments()).sum(axis=1).max())
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
        residuals={"decomposition": resid_sum},
        log=tuple(log),
        table=table,
    )
