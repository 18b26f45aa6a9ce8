"""Test-only helpers that the package itself never calls: the binary tree,
the lemma-level checks (summation by parts, martingale orthogonality,
conditional expectation at a time), the slow diagnostics path that
the pipeline's one-integral-per-strategy path is compared against, the
constant strategy, the continuity probe along vanishing-position
strategies, the line formatter that the writer's table gather is
compared against, the per-row sampler that the ensemble innovations are
compared against, spies that record what the continuous stage
builds but does not keep, and the independent rechecker of a verdict,
perfbench/checks.py, which shares no code with the package; it is
loaded by path, so nothing under perfbench/ is imported as a package."""

import functools
import importlib.util
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import semimart.pipeline as pipeline
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
from semimart.io import _repeats
from semimart.pipeline import PAD_COPIES, extend_martingale
from semimart.space import AdaptedProcess, DyadicGrid, FilteredSpace, stop_process, tree_innovations


def payload_lines(arr: np.ndarray, cell: str = "%.17g") -> list:
    """One text line per row: its cells, each `cell % value`, joined by
    commas; the expression the ensemble writer and the report digests
    used before they gathered cells from tables.  When values repeat,
    each distinct bit pattern is formatted once and mapped back through
    Python objects; otherwise each row takes the per-row template."""
    if not _repeats(arr):
        row = ",".join([cell] * arr.shape[1])
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


def sampled_innovations(seed: int, paths: int, n_steps: int) -> np.ndarray:
    """The +/-1 innovation rows of an ensemble as they were first sampled:
    one Generator per path on the path's spawned seed stream, each drawing
    its row's bits with `integers(0, 2)`."""
    root = np.random.SeedSequence(seed)
    xi = np.empty((paths, n_steps), dtype=np.int8)
    for row in range(paths):
        bits = np.random.default_rng(root.spawn(1)[0]).integers(0, 2, size=n_steps)
        xi[row] = 1 - 2 * bits
    return xi


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
    return FilteredSpace(grid, probs, labels)


def conditional_expectation(space: FilteredSpace, x: np.ndarray, j: int) -> np.ndarray:
    """E[x | F_j]: the cell-wise probability-weighted average at grid index j."""
    x = np.asarray(x, dtype=float)
    if x.shape != (space.n_atoms,):
        raise ParameterError("random variable needs one value per atom")
    if not np.all(np.isfinite(x)):
        raise PreconditionError("conditional expectation requires finite values")
    return space.cell_average(x, j)


def build_binary_tree(level: int, innovation_map):
    """Binary tree space plus a process defined by a prefix map.

    ``innovation_map`` maps a sign prefix (tuple) to the process value at
    the prefix's end time.  Returns (FilteredSpace, AdaptedProcess).
    """
    space = binary_tree_space(level)
    grid = space.grid
    values = np.empty((space.n_atoms, grid.n_times))
    cache: dict[tuple, float] = {}
    for a, row in enumerate(tree_innovations(level)):
        for j in range(grid.n_times):
            prefix = tuple(int(s) for s in row[:j])
            if prefix not in cache:
                cache[prefix] = float(innovation_map(prefix))
            values[a, j] = cache[prefix]
    return space, AdaptedProcess(space, values)


def constant_integrand(space: FilteredSpace, value: float) -> SimpleIntegrand:
    """The strategy that holds `value` over all of [0, 1]."""
    w = np.full((space.n_atoms, 1), float(value))
    return SimpleIntegrand.from_grid_mesh(space, [0, space.grid.n_steps], w)


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


@dataclass
class StageRecord:
    """What spies saw the continuous stage build and not keep: per step,
    in order, its exit time alpha_k and Rbar_1 (pass 1), and its
    integrand weights and (script-M, script-A) (pass 2); the steps whose
    stopped mixes it checked, which are the selected ones; and the
    extraction's limit of Rbar_1."""

    exits: list = field(default_factory=list)
    weights: list = field(default_factory=list)
    scripts: list = field(default_factory=list)
    selected: list = field(default_factory=list)
    rbar_limit: np.ndarray | None = None


def recorded_stage(monkeypatch) -> StageRecord:
    """Spies on the continuous stage's helpers, recording into one record."""
    rec = StageRecord()

    def spy(name, record):
        original = getattr(pipeline, name)

        def recorded(*args, **kwargs):
            out = original(*args, **kwargs)
            record(args, out)
            return out

        monkeypatch.setattr(pipeline, name, recorded)

    def weights(args, out):
        # both scripts of a step are built with the step's one weight array
        if not rec.weights or rec.weights[-1] is not args[2]:
            rec.weights.append(args[2])

    spy("_exit_time", lambda args, out: rec.exits.append(out))
    spy("_script", weights)
    spy("_mix_step", lambda args, out: rec.scripts.append(out))
    spy("_stopped_mix", lambda args, out: rec.selected.append(args[0]))
    spy("extract_convex", lambda args, out: setattr(rec, "rbar_limit", out[1]))
    return rec


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
    return win_probabilities((integrate(H, S) for H in seq.elements), S.space.probs, alpha)


def evaluate(seq: StrategySequence, S: AdaptedProcess, alpha: float) -> StrategySequence:
    """A copy of seq with (LI)/(VR)/(FL at alpha) diagnostics filled in,
    one integral per element and diagnostic."""
    li = tuple(li_metric(H) for H in seq.elements)
    vr = tuple(vr_metric(H, S) for H in seq.elements)
    fl = tuple(fl_statistic(seq, S, alpha))
    return StrategySequence(seq.elements, li=li, vr=vr, fl=fl)


def continuity_probe(S: AdaptedProcess, seq: StrategySequence, delta: float) -> np.ndarray:
    """Exact tail probabilities P[|(H^n . S)_1| > delta] per element.

    A good integrator shows the statistic falling to 0 once the position
    norms vanish; a warning is raised when the norms do not vanish, since
    the probe is then uninformative.
    """
    if not delta > 0:
        raise ParameterError(f"delta must be > 0, got {delta}")
    norms = [li_metric(H) for H in seq.elements]
    if norms and norms[-1] > 1e-9 and norms[-1] > 0.5 * norms[0]:
        warnings.warn(
            "position norms do not vanish along the sequence; the continuity "
            "probe only constrains vanishing-norm strategies",
            stacklevel=2,
        )
    out = np.empty(len(seq.elements))
    probs = S.space.probs
    for i, H in enumerate(seq.elements):
        terminal = integrate(H, S)
        out[i] = float(probs[np.abs(terminal) > delta].sum())
    return out


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


CHECKS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "checks.py"


@functools.cache
def load_checks():
    spec = importlib.util.spec_from_file_location("perfbench_checks", CHECKS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def recheck_errors(source, verdict) -> list:
    """The rules of perfbench/checks.py that the verdict breaks, read
    from the source's and the verdict's raw arrays as the benchmark reads them."""
    checks = load_checks()
    space, S = source.space, source.process
    if verdict.kind == "certificate":
        return checks.certificate_errors(
            S.values, space.probs, space.labels, verdict.M.values, verdict.A.values,
            verdict.alpha.index, verdict.constants["tv_bound"],
        )
    strategies = [
        (np.column_stack([tau.index for tau in H.mesh]), H.weights)
        for H in verdict.strategies.elements
    ]
    return checks.free_lunch_errors(S.values, space.probs, strategies, verdict.alpha_star)
