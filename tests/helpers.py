"""Test-only helpers that the package itself never calls: the binary tree,
the lemma-level checks (summation by parts, martingale orthogonality,
conditional expectation at a time), the slow diagnostics path that
the pipeline's one-integral-per-strategy path is compared against, and
the line formatter that the writer's table gather is compared against."""

from dataclasses import dataclass

import numpy as np

from semimart.doob import BOUND_TOL, restrict_to_level
from semimart.errors import InvariantViolation, ParameterError, PreconditionError, StructuralError
from semimart.integrands import (
    SimpleIntegrand,
    StrategySequence,
    integrate,
    li_metric,
    vr_metric,
    win_probabilities,
)
from semimart.io import _cells, _repeats
from semimart.pipeline import PAD_COPIES, extend_martingale
from semimart.space import AdaptedProcess, DyadicGrid, FilteredSpace, stop_process, tree_innovations


def payload_lines(arr: np.ndarray, cell: str = "%.17g") -> list:
    """One text line per row: its cells, each `cell % value`, joined by
    commas; the expression the ensemble writer and the report digests
    used before they gathered cells from tables.  When values repeat,
    each distinct bit pattern is formatted once and mapped back through
    Python objects; otherwise each row takes the per-row template."""
    if not _repeats(arr):
        row = _cells(cell, arr.shape[1])
        return [row % tuple(r) for r in arr.tolist()]
    n, width = arr.shape
    bits = arr.view(f"u{arr.itemsize}")
    distinct, inverse = np.unique(bits, return_inverse=True)
    text = np.array([cell % v for v in distinct.view(arr.dtype).tolist()], dtype=object)
    return [",".join(r) for r in text[inverse.reshape(n, width)].tolist()]


def ensemble_rows_text(codes, inverse, values, xi) -> str:
    """The atom rows of an ensemble file as the writer built them from
    `payload_lines`: codes[inverse[a]] is atom a's "numerator,k" text."""
    xi = np.empty((values.shape[0], 0), dtype=np.int8) if xi is None else xi
    return "".join([
        '{"p":[%s],"v":[%s],"xi":[%s]}\n' % row
        for row in zip(
            [codes[c] for c in inverse.tolist()],
            payload_lines(values, '"%.17g"'),
            payload_lines(xi, "%d"),
        )
    ])


def binary_tree_space(level: int) -> FilteredSpace:
    """The full binary innovation tree at a dyadic level.

    Atoms are all +/-1 sequences of length 2^level with equal probability
    2^(-2^level); the partition at time j/2^level groups atoms by their
    first j innovations.
    """
    innovations = tree_innovations(level)
    grid = DyadicGrid(level)
    steps = grid.n_steps
    n_atoms = innovations.shape[0]
    atoms = np.arange(n_atoms, dtype=np.int64)
    labels = np.zeros((grid.n_times, n_atoms), dtype=np.int64)
    for j in range(1, grid.n_times):
        labels[j] = atoms >> (steps - j)
    probs = np.full(n_atoms, 1.0 / n_atoms)
    return FilteredSpace(grid, probs, labels, innovations=innovations)


def conditional_expectation(space: FilteredSpace, x: np.ndarray, t: float) -> np.ndarray:
    """E[x | F_t]: the cell-wise probability-weighted average at time t."""
    x = np.asarray(x, dtype=float)
    if x.shape != (space.n_atoms,):
        raise ParameterError("random variable needs one value per atom")
    if not np.all(np.isfinite(x)):
        raise PreconditionError("conditional expectation requires finite values")
    return space.cell_average(x, space.grid.index_of(t))


def build_binary_tree(level: int, innovation_map):
    """Binary tree space plus a process defined by a prefix map.

    ``innovation_map`` maps a sign prefix (tuple) to the process value at
    the prefix's end time.  Returns (FilteredSpace, AdaptedProcess).
    """
    space = binary_tree_space(level)
    grid = space.grid
    values = np.empty((space.n_atoms, grid.n_times))
    cache: dict[tuple, float] = {}
    for a in range(space.n_atoms):
        row = space.innovations[a]
        for j in range(grid.n_times):
            prefix = tuple(int(s) for s in row[:j])
            if prefix not in cache:
                cache[prefix] = float(innovation_map(prefix))
            values[a, j] = cache[prefix]
    return space, AdaptedProcess(space, values)


def combine(H: SimpleIntegrand, a: float, other: SimpleIntegrand, b: float) -> SimpleIntegrand:
    """a*H + b*other; both must share the same mesh."""
    if other.space is not H.space:
        raise StructuralError("integrands live on different spaces")
    if len(other.mesh) != len(H.mesh) or any(
        not np.array_equal(s.index, o.index) for s, o in zip(H.mesh, other.mesh)
    ):
        raise StructuralError("integrands must share a common mesh to combine")
    return SimpleIntegrand(H.space, H.mesh, a * H.weights + b * other.weights)


def residual_against(cert, S: AdaptedProcess) -> float:
    """Max deviation of a certificate's M + A from S stopped at its alpha."""
    stopped = stop_process(S, cert.alpha)
    return float(np.abs(cert.M.values + cert.A.values - stopped.values).max())


def per_position_mixes(source: AdaptedProcess, certs, cw) -> list:
    """(script-M, script-A) values of every extraction step, mixed per
    padded position: the certificates padded by repeating the finest, each
    position extended on its own, and mu_j * R_i[:, 1:] * dM_i accumulated
    in block order.  The reference for the continuous stage's mixes."""
    certs = tuple(certs) + (certs[-1],) * PAD_COPIES
    space = source.space
    n_times = space.grid.n_times
    R = np.empty((len(certs), space.n_atoms, n_times))
    for i, c in enumerate(certs):
        R[i] = np.arange(n_times)[None, :] <= c.rho.index[:, None]
    ext = [extend_martingale(c.level, c.m_terminal, source, rho=c.rho, C=c.C) for c in certs]
    dM = [np.diff(M.values, axis=1) for M, _ in ext]
    dA = [np.diff(A.values, axis=1) for _, A in ext]
    zeros = np.zeros((space.n_atoms, 1))
    out = []
    for blk in cw.blocks:
        mu, idx = blk.weights, blk.indices
        rbar = np.einsum("k,kat->at", mu, R[idx])
        mask = rbar >= 0.5
        w = np.where(mask[:, 1:], 1.0 / np.where(mask[:, 1:], rbar[:, 1:], 1.0), 0.0)
        dN_m = np.zeros((space.n_atoms, n_times - 1))
        dN_a = np.zeros((space.n_atoms, n_times - 1))
        for j, i in enumerate(idx):
            dN_m += mu[j] * R[i][:, 1:] * dM[i]
            dN_a += mu[j] * R[i][:, 1:] * dA[i]
        out.append((
            np.concatenate([zeros, np.cumsum(w * dN_m, axis=1)], axis=1),
            np.concatenate([zeros, np.cumsum(w * dN_a, axis=1)], axis=1),
        ))
    return out


def quadratic_variation(S: AdaptedProcess, n: int) -> np.ndarray:
    """Per-atom sum of squared level-n increments."""
    dS = restrict_to_level(S, n).increments()
    return np.einsum("ij,ij->i", dS, dS)


def martingale_l2(M: AdaptedProcess) -> float:
    """E[M_1^2] - E[M_0^2], the martingale's accumulated second moment.

    The orthogonality-of-increments identity (the value equals the summed
    increment second moments) is enforced to 1e-10.
    """
    space = M.space
    total = float(space.expectation(M.values[:, -1] ** 2) - space.expectation(M.values[:, 0] ** 2))
    dM = M.increments()
    by_steps = float(sum(space.expectation(dM[:, c] ** 2) for c in range(dM.shape[1])))
    if abs(total - by_steps) > BOUND_TOL:
        raise InvariantViolation(
            f"increment orthogonality failed: E[M_1^2]-E[M_0^2]={total} vs sum {by_steps}"
        )
    return total


def fl_statistic(seq: StrategySequence, S: AdaptedProcess, alpha: float) -> np.ndarray:
    """Exact P[(H^n . S)_1^+ >= alpha] per sequence element."""
    return win_probabilities((integrate(H, S, 1.0) for H in seq.elements), S.space.probs, alpha)


def evaluate(seq: StrategySequence, S: AdaptedProcess, alpha: float) -> StrategySequence:
    """A copy of seq with (LI)/(VR)/(FL at alpha) diagnostics filled in,
    one integral per element and diagnostic."""
    li = tuple(li_metric(H) for H in seq.elements)
    vr = tuple(vr_metric(H, S) for H in seq.elements)
    fl = tuple(fl_statistic(seq, S, alpha))
    return StrategySequence(seq.elements, li=li, vr=vr, fl=fl, fl_threshold=alpha)


@dataclass(frozen=True)
class StepFunction:
    """Deterministic left-continuous step function on [0, 1].

    f = sum_k values[k-1] * 1_{(breaks[k-1], breaks[k]]}; breaks must run
    from 0 to 1 strictly increasing.
    """

    breaks: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.breaks, dtype=float)
        v = np.asarray(self.values, dtype=float)
        b.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "breaks", b)
        object.__setattr__(self, "values", v)
        if b.ndim != 1 or b.size < 2 or v.shape != (b.size - 1,):
            raise ParameterError("need breaks (N+1,) and values (N,)")
        if abs(b[0]) > 0 or abs(b[-1] - 1.0) > 0:
            raise ParameterError("breaks must start at 0 and end at 1")
        if np.any(np.diff(b) <= 0):
            raise ParameterError("breaks must be strictly increasing")
        if not (np.all(np.isfinite(b)) and np.all(np.isfinite(v))):
            raise ParameterError("step function data must be finite")

    def sup_norm(self) -> float:
        return float(np.abs(self.values).max())

    def total_variation(self) -> float:
        return float(np.abs(np.diff(self.values)).sum())


@dataclass(frozen=True)
class GridFunction:
    """A deterministic path known at finitely many times in [0, 1]."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values, dtype=float)
        t.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)
        if t.ndim != 1 or t.size == 0 or v.shape != t.shape:
            raise ParameterError("times and values must be matching 1-d arrays")
        if np.any(np.diff(t) <= 0):
            raise ParameterError("sample times must be strictly increasing")

    def value_at(self, t: float) -> float:
        pos = int(np.searchsorted(self.times, t))
        if pos >= self.times.size or self.times[pos] != t:
            raise ParameterError(f"function is not sampled at time {t!r}")
        return float(self.values[pos])


def step_integral(f: StepFunction, g: GridFunction, t: float) -> float:
    """Partial Riemann sum of the step function f against g up to time t.

    With n(t) = #{k >= 1: breaks[k] < t}, the sum runs over the full
    intervals before t plus the partial term on the interval containing t.
    """
    if t < 0 or t > 1:
        raise ParameterError(f"time {t!r} outside [0, 1]")
    interior = f.breaks[1:]
    n = int(np.searchsorted(interior, t, side="left"))
    total = 0.0
    for k in range(1, n + 1):
        total += f.values[k - 1] * (g.value_at(f.breaks[k]) - g.value_at(f.breaks[k - 1]))
    if n < f.values.size:
        total += f.values[n] * (g.value_at(t) - g.value_at(f.breaks[n]))
    return total


def sum_by_parts_bound(f: StepFunction, g: GridFunction, partition) -> tuple[float, float]:
    """LHS: variation of t -> (f.g)_t along the partition; RHS: the bound
    2 TV(f) ||g||_inf + ||f||_inf sum |g(t_i) - g(t_{i-1})|.

    The inequality LHS <= RHS is a contract; violation past 1e-10 raises.
    """
    pts = np.asarray(partition, dtype=float)
    if pts.ndim != 1 or pts.size < 2:
        raise ParameterError("partition needs at least two points")
    if np.any(np.diff(pts) < 0) or pts[0] < 0 or pts[-1] > 1:
        raise ParameterError("partition must be non-decreasing within [0, 1]")
    vals = [step_integral(f, g, t) for t in pts]
    lhs = float(np.abs(np.diff(vals)).sum())
    g_sup = float(np.abs(g.values).max())
    dg = float(sum(abs(g.value_at(pts[i]) - g.value_at(pts[i - 1])) for i in range(1, pts.size)))
    rhs = 2.0 * f.total_variation() * g_sup + f.sup_norm() * dg
    if lhs > rhs + 1e-10:
        raise InvariantViolation(f"summation-by-parts bound violated: {lhs} > {rhs}")
    return lhs, rhs
