"""Level-wise Doob decomposition, variation diagnostics, and the stopping
constructions that bound the martingale and drift parts.

The decomposition at dyadic level n reads the process on the level-n
grid and produces the unique split S = M + A where the A-increments are
conditional means of the S-increments (so A is predictable, A_0 = 0) and
M is the martingale remainder.  Stopping rules cut paths the moment the
running quadratic variation, running drift variation, or a running
integral leaves a budget; each rule absorbs at most one extra increment,
which the threshold offsets account for.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolation, ParameterError, PreconditionError
from .integrands import SimpleIntegrand, integral_process
from .space import (
    ATOL,
    AdaptedProcess,
    FilteredSpace,
    StoppingTime,
    cell_mismatch,
    first_hitting_time,
    stop_process,
)

# accumulated float error budget on exact identities
IDENT_TOL = 1e-12
BOUND_TOL = 1e-10

# atoms x times cells per block of the M + A = S identity check
IDENT_BLOCK_CELLS = 1 << 16

LADDER_BASE = 8.0
LADDER_MAX = float(2 ** 20)


def ladder(cap: float = LADDER_MAX) -> list[float]:
    """The constant search ladder: powers of two from 8 up to cap."""
    if not math.isfinite(cap):
        raise ParameterError(f"ladder cap must be finite, got {cap}")
    if cap < LADDER_BASE:
        raise ParameterError(f"ladder cap {cap} below base {LADDER_BASE}")
    out = []
    c = LADDER_BASE
    while c <= cap:
        out.append(c)
        c *= 2
    return out


def _level_indices(space: FilteredSpace, n: int) -> np.ndarray:
    finest = space.grid.level
    if n < 0 or n > finest:
        raise ParameterError(f"level {n} outside the grid (finest level {finest})")
    step = 1 << (finest - n)
    return np.arange(0, space.grid.n_times, step)


def restrict_to_level(S: AdaptedProcess, n: int) -> AdaptedProcess:
    """Sample S on the level-n dyadic grid."""
    return S.restrict(_level_indices(S.space, n))


@dataclass(frozen=True)
class DoobDecomposition:
    """S = M + A on a level-n grid with QV/TV diagnostics; `doob_decompose`
    builds it and checks M + A = S there, and `_rebuilt` builds it again
    around the same A without rerunning the checks.

    ``analytic`` marks decompositions whose A came from a generator's
    closed-form compensator rather than partition averaging; for those
    the partition-based checks (martingale residual, predictability) are
    skipped, since an empirical ensemble filtration cannot reproduce them
    exactly.
    """

    level: int
    M: AdaptedProcess
    A: AdaptedProcess
    qv: np.ndarray
    tv: np.ndarray
    m_l2: float
    analytic: bool = False

    def __post_init__(self):
        if np.abs(self.A.values[:, 0]).max() > IDENT_TOL:
            raise InvariantViolation("predictable part must start at 0")
        if not self.analytic:
            resid = martingale_residual(self.M)
            if resid > IDENT_TOL:
                raise InvariantViolation(f"martingale residual {resid} exceeds {IDENT_TOL}")
            if not _predictable(self.A):
                raise InvariantViolation("A-increments are not predictable")


def _rebuilt(S: AdaptedProcess, n: int, A: AdaptedProcess, qv, tv, m_l2: float,
             analytic: bool) -> DoobDecomposition:
    """The level-n record that `doob_decompose(S, n, ...)` returned, rebuilt
    around its A: M = S_n - A is the expression that built the checked M,
    so it has the same bits, and the checks that held then are not rerun."""
    M = restrict_to_level(S, n).values - A.values
    M.setflags(write=False)
    D = object.__new__(DoobDecomposition)
    for name, value in (("level", n), ("M", AdaptedProcess(S.space, M, A.time_index)), ("A", A),
                        ("qv", qv), ("tv", tv), ("m_l2", m_l2), ("analytic", analytic)):
        object.__setattr__(D, name, value)
    return D


def conditional_increments(X: AdaptedProcess) -> np.ndarray:
    """E[X_{t_c} - X_{t_{c-1}} | F_{t_{c-1}}] on X's own sample times, one column per step."""
    dX = X.increments()
    out = np.empty_like(dX)
    for c in range(1, X.n_times):
        out[:, c - 1] = X.space.cell_average(dX[:, c - 1], X.time_index[c - 1])
    return out


def martingale_residual(M: AdaptedProcess) -> float:
    return float(np.abs(conditional_increments(M)).max(initial=0.0))


def _predictable(A: AdaptedProcess) -> bool:
    """Each A_{t_c} is constant on the cells at the preceding sample time."""
    return cell_mismatch(A.space.labels[A.time_index[:-1]], A.values[:, 1:].T, ATOL) is None


def _identity_error(M: np.ndarray, A: np.ndarray, S: np.ndarray) -> float:
    """max |M + A - S|, in one temporary."""
    err = M + A
    err -= S
    return np.abs(err, out=err).max()


def doob_decompose(S: AdaptedProcess, n: int, dA: np.ndarray | None = None) -> DoobDecomposition:
    """Unique level-n split into martingale part and predictable drift.

    The A-increments are the cell averages of the S-increments, or the
    supplied ``dA`` of a generator whose compensator is known in closed
    form; the record is analytic exactly when dA is given.
    """
    Sn = restrict_to_level(S, n)
    space = Sn.space
    analytic = dA is not None
    if not analytic:
        dA = conditional_increments(Sn)
    elif dA.shape != (space.n_atoms, Sn.n_times - 1):
        raise ParameterError("A-increments must have one column per level-n step")
    # A is the running sum of dA from 0, accumulated in place
    A_vals = np.empty((space.n_atoms, Sn.n_times))
    A_vals[:, 0] = 0.0
    np.cumsum(dA, axis=1, out=A_vals[:, 1:])
    M_vals = Sn.values - A_vals
    # M + A = S_n up to rounding, checked in blocks of atoms so that the
    # temporary stays small; a max is exact, so blocks change no bit
    step = max(1, IDENT_BLOCK_CELLS // Sn.n_times)
    err = np.max([_identity_error(M_vals[lo:lo + step], A_vals[lo:lo + step], Sn.values[lo:lo + step])
                  for lo in range(0, space.n_atoms, step)])
    if err > IDENT_TOL:
        raise InvariantViolation(f"M + A differs from S by {err}")
    # the fresh parts are handed over read-only, so AdaptedProcess keeps them uncopied
    A_vals.setflags(write=False)
    M_vals.setflags(write=False)
    # |dA| and dS are never alive together, and both are freed before the
    # record's checks, which peak on a tree
    tv = np.abs(dA).sum(axis=1)
    del dA
    dS = Sn.increments()
    # the sigma ladder reads qv; a test pins it, bit for bit, to the last
    # running sum that sigma_stop builds
    qv = np.einsum("ij,ij->i", dS, dS)
    del dS
    m_l2 = float(space.expectation(M_vals[:, -1] ** 2))
    M = AdaptedProcess(space, M_vals, Sn.time_index)
    A = AdaptedProcess(space, A_vals, Sn.time_index)
    return DoobDecomposition(n, M, A, qv, tv, m_l2, analytic=analytic)


def qv_strategy(S: AdaptedProcess, n: int) -> SimpleIntegrand:
    """The strategy holding -S_{(j-1)/2^n} on each level-n step.

    Its terminal gain equals half the quadratic variation plus the
    deterministic correction (S_0^2 - S_1^2)/2, and the running integral
    never drops below -1/2; both need ||S||_inf <= 1.
    """
    if S.sup_norm() > 1.0 + BOUND_TOL:
        raise PreconditionError(
            f"qv_strategy requires ||S||_inf <= 1 (got {S.sup_norm()}); scale the process first"
        )
    Sn = restrict_to_level(S, n)
    idx = _level_indices(S.space, n)
    weights = -Sn.values[:, :-1]
    return SimpleIntegrand.from_grid_mesh(S.space, idx, weights)


def sigma_stop(S: AdaptedProcess, n: int, c: float) -> StoppingTime:
    """First level-n time the running squared-increment sum reaches c - 4.

    The offset leaves room for one more squared increment (at most 4 when
    ||S||_inf <= 1), so the sum stopped at sigma stays below c.
    """
    if not c > 0:
        raise ParameterError(f"budget c must be > 0, got {c}")
    Sn = restrict_to_level(S, n)
    running = np.cumsum(Sn.increments() ** 2, axis=1)
    hit = np.concatenate(
        [np.zeros((running.shape[0], 1), dtype=bool), running >= c - 4.0], axis=1
    )
    return first_hitting_time(Sn, hit, start_col=1)


def tau_stop(D: DoobDecomposition, c: float) -> StoppingTime:
    """First level-n time the running drift variation reaches c - 2.

    One further A-increment is at most 2 in absolute value, so the
    stopped drift variation stays below c.
    """
    if not c > 0:
        raise ParameterError(f"budget c must be > 0, got {c}")
    A = D.A
    running = np.cumsum(np.abs(A.increments()), axis=1)
    hit = np.concatenate(
        [np.zeros((running.shape[0], 1), dtype=bool), running >= c - 2.0], axis=1
    )
    return first_hitting_time(A, hit, start_col=1)


def _ladder_search(name: str, space: FilteredSpace, totals, offset: float, eps: float,
                   ladder_max: float):
    """First ladder rung c with P[total_n >= c - offset] < eps/2 at every
    level n, and the search log; c is None when the ladder runs out.

    ``totals`` holds, per level, each atom's running sum of non-negative
    terms at its last step.  Such a sum reaches c - offset at some step
    exactly when its last value does, so each probability is P[stop < inf]
    of the matching first-hitting time, without building it."""
    log = []
    for c in ladder(ladder_max):
        worst = max(float(space.probs[t >= c - offset].sum()) for t in totals)
        log.append(f"{name} ladder c={c:g}: max_n P[{name}<inf]={worst:.6g} (need < {eps / 2:g})")
        if worst < eps / 2:
            return c, log
    log.append(f"{name} ladder exhausted")
    return None, log


def sign_strategy(D: DoobDecomposition, stop: StoppingTime) -> SimpleIntegrand:
    """Unit positions along the drift direction of the stopped A.

    Weight b_{j-1} = sign(A^{stop}_{j} - A^{stop}_{j-1}) with sign(0) = 0;
    integrating against S recovers the stopped drift variation plus a
    martingale term, exactly.
    """
    A_st = stop_process(D.A, stop)
    b = np.sign(A_st.increments())
    idx = A_st.time_index
    return SimpleIntegrand.from_grid_mesh(D.A.space, idx, b)


def doob_maximal_stop(D: DoobDecomposition, h: SimpleIntegrand, c2: float) -> StoppingTime:
    """First time |(h.M)_t| reaches c2 on the decomposition's grid.

    The maximal inequality gives P[stop < inf] <= 4 E[(h.M)_1^2] / c2^2;
    the bound is verified on construction.
    """
    if not c2 > 0:
        raise ParameterError(f"budget c2 must be > 0, got {c2}")
    proc = integral_process(h, D.M)
    hit = np.abs(proc.values) >= c2
    hit[:, 0] = False
    tau = first_hitting_time(proc, hit, start_col=1)
    if not D.analytic:
        p = tau.prob_finite()
        bound = 4.0 * float(D.M.space.expectation(proc.values[:, -1] ** 2)) / c2 ** 2
        if p > bound + BOUND_TOL:
            raise InvariantViolation(
                f"maximal inequality violated: P[stop<inf]={p} > 4 E[(h.M)_1^2]/c2^2={bound}"
            )
    return tau


@dataclass(frozen=True)
class StageCertificate:
    """One certified level of the discrete stage: the stopping time rho
    (quadratic cut at c1 meets drift cut at c2), the budget
    C = max(c1, c2), the verified stopped bounds and the level's terminal
    martingale value M_1, one per atom.  The budgets c1, c2 are the
    stage's, kept once on `StageResult`.

    M_1 is all the continuous stage reads of the level decomposition, so
    the certificate keeps an owned, read-only copy of it and not the
    decomposition: a view of M's last column would keep all of M alive.
    """

    level: int
    eps: float
    C: float
    rho: StoppingTime
    tv_stopped: float
    m_l2_stopped: float
    p_stop: float
    m_terminal: np.ndarray

    def __post_init__(self):
        m_terminal = np.array(self.m_terminal, dtype=float)
        m_terminal.setflags(write=False)
        object.__setattr__(self, "m_terminal", m_terminal)
        bad = []
        if self.tv_stopped > self.C + BOUND_TOL:
            bad.append(f"TV {self.tv_stopped} > C {self.C}")
        if self.m_l2_stopped > self.C + BOUND_TOL:
            bad.append(f"E[M_1^2] {self.m_l2_stopped} > C {self.C}")
        if not self.p_stop < self.eps:
            bad.append(f"P[rho<inf] {self.p_stop} >= eps {self.eps}")
        if bad:
            raise InvariantViolation("certificate bounds failed: " + "; ".join(bad))


@dataclass(frozen=True)
class StageResult:
    """The outcome of a discrete stage plus its search/guard log.

    A passing stage holds P[rho_n < inf] per level in ``p_stops``, no
    witnesses, and one certificate per level on exact (not analytic)
    decompositions.  A failing stage names its failure and holds one
    finished witness strategy per level for the free-lunch branch.
    """

    certificates: tuple
    witnesses: tuple
    levels: tuple
    p_stops: tuple
    c1: float | None
    c2: float | None
    qv_means: tuple
    tv_means: tuple
    failure: str
    log: tuple

    @property
    def passed(self) -> bool:
        return not self.failure


# A strictly growing per-level mean is the finite surrogate for an
# unbounded-variation limit: no single budget can hold at every level if
# the level means keep multiplying.  The ratio threshold is deliberately
# above seeded-Monte-Carlo noise and below the slowest growth the
# reference generators produce.
GROWTH_RATIO = 1.05
GROWTH_FLOOR = 1e-6


def _growth_guard(means) -> bool:
    means = list(means)
    if len(means) < 2 or means[-1] <= GROWTH_FLOOR:
        return False
    return all(b > GROWTH_RATIO * a and a > 0 for a, b in zip(means, means[1:]))


def discrete_stage(
    S: AdaptedProcess,
    levels,
    eps: float,
    ladder_max: float = LADDER_MAX,
    drift=None,
) -> StageResult:
    """Run the per-level budget searches and emit certificates or witnesses.

    Every level must lie in 1..finest.  On success each level gets
    rho_n = sigma_n(c1) ^ tau_n(c2) with C = max(c1, c2); both searches
    demand stop probability < eps/2 at every level simultaneously.  A
    search fails when its ladder is exhausted or when the growth guard
    extrapolates that no budget can hold at all levels (the operational
    reading of unbounded variation); a failed stage yields one finished
    witness strategy per level instead of certificates: the qv strategy,
    or on the drift side sign(A^sigma_n(c1)) cut where its martingale
    integral reaches sqrt(8 c1 / eps), which the maximal inequality makes
    rare and which bounds the drawdown.

    ``drift`` maps a level to the A-increments `doob_decompose` takes, or
    to None for cell averages; leaving it out averages at every level.
    """
    if not 0 < eps < 1:
        raise ParameterError(f"eps must lie in (0, 1), got {eps}")
    if np.abs(S.values[:, 0]).max() > BOUND_TOL:
        raise PreconditionError("discrete stage needs S_0 = 0; shift the process first")
    if S.sup_norm() > 1.0 + BOUND_TOL:
        raise PreconditionError(
            f"discrete stage needs ||S||_inf <= 1 (got {S.sup_norm()}); "
            "stop or scale the process first"
        )
    levels = tuple(sorted(set(int(n) for n in levels)))
    finest = S.space.grid.level
    if not levels or levels[0] < 1 or levels[-1] > finest:
        raise ParameterError(f"levels must lie in 1..{finest}, got {list(levels)}")

    log = []
    # pass 1 decomposes each level once and keeps its A and per-atom
    # totals, which are all the guards and the ladders read; M is dropped
    kept = []
    for n in levels:
        D = doob_decompose(S, n, drift(n) if drift else None)
        kept.append((D.A, D.qv, D.tv, D.m_l2, D.analytic))
        del D
    qv_means = tuple(float(S.space.expectation(qv)) for _, qv, *_ in kept)
    tv_means = tuple(float(S.space.expectation(tv)) for _, _, tv, *_ in kept)
    log.append("qv means per level: " + ", ".join(f"{n}:{q:.6g}" for n, q in zip(levels, qv_means)))
    log.append("tv means per level: " + ", ".join(f"{n}:{t:.6g}" for n, t in zip(levels, tv_means)))

    failure = ""
    c1 = None
    if _growth_guard(qv_means):
        failure = "qv-growth"
        log.append(
            "quadratic-variation means grow strictly across the level range; "
            "no budget can hold at every level (growth guard)"
        )
    else:
        c1, c1_log = _ladder_search("sigma", S.space, [qv for _, qv, *_ in kept], 4.0, eps,
                                    ladder_max)
        log.extend(c1_log)
        if c1 is None:
            failure = "qv-ladder"

    c2 = None
    if not failure:
        if _growth_guard(tv_means):
            failure = "tv-growth"
            log.append(
                "drift-variation means grow strictly across the level range; "
                "no budget can hold at every level (growth guard)"
            )
        else:
            totals = [np.cumsum(np.abs(A.increments()), axis=1)[:, -1] for A, *_ in kept]
            c2, c2_log = _ladder_search("tau", S.space, totals, 2.0, eps, ladder_max)
            log.extend(c2_log)
            if c2 is None:
                failure = "tv-ladder"

    # pass 2 rebuilds one level at a time for its certificate or its
    # witness, and the stage lets go of the level before the next
    certs = []
    witnesses = []
    p_stops = []
    if not failure:
        C = max(c1, c2)
        for i, n in enumerate(levels):
            D = _rebuilt(S, n, *kept[i])
            kept[i] = None
            rho = sigma_stop(S, n, c1).min_with(tau_stop(D, c2))
            p_stops.append(rho.prob_finite())
            if not D.analytic:  # sampled paths meet the bounds only up to noise
                M_st = stop_process(D.M, rho)
                A_st = stop_process(D.A, rho)
                certs.append(
                    StageCertificate(
                        level=n,
                        eps=eps,
                        C=C,
                        rho=rho,
                        tv_stopped=float(np.abs(A_st.increments()).sum(axis=1).max()),
                        m_l2_stopped=float(S.space.expectation(M_st.values[:, -1] ** 2)),
                        p_stop=p_stops[-1],
                        m_terminal=D.M.values[:, -1],
                    )
                )
                del M_st, A_st
            del D
        log.append(f"all levels certified with c1={c1:g}, c2={c2:g}, C={C:g}")
    else:
        qv_side = failure.startswith("qv")
        for i, n in enumerate(levels):
            if qv_side:
                witness = qv_strategy(S, n)
            else:
                D = _rebuilt(S, n, *kept[i])
                witness = sign_strategy(D, sigma_stop(S, n, c1))
                witness = witness.truncate(doob_maximal_stop(D, witness, math.sqrt(8.0 * c1 / eps)))
                del D
            kept[i] = None
            witnesses.append(witness)
        log.append(f"stage failed ({failure}); emitted witness strategies per level")

    return StageResult(
        certificates=tuple(certs),
        witnesses=tuple(witnesses),
        levels=levels,
        p_stops=tuple(p_stops),
        c1=c1,
        c2=c2,
        qv_means=qv_means,
        tv_means=tv_means,
        failure=failure,
        log=tuple(log),
    )
