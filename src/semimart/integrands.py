"""Simple trading strategies, pathwise Riemann-sum integration, and the
risk / investment / payoff metrics used by the detection pipeline.

A simple integrand holds a position f_j on each stochastic interval
(tau_{j-1}, tau_j] of a stopping-time mesh.  Integration against an
adapted process is the finite sum of position times increment, so every
metric below is an exact finite computation.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolation, ParameterError, PreconditionError, StructuralError
from .space import ATOL, AdaptedProcess, FilteredSpace, StoppingTime, cell_mismatch, check_stopping_time


def _measurable_at(space: FilteredSpace, time_idx: np.ndarray, x: np.ndarray, atol: float = ATOL) -> bool:
    """x must be constant on partition cells at each atom's own time index.

    This is the finite-space reading of measurability with respect to the
    sigma-algebra of a stopping time: on the event {tau = t}, x is constant
    on the time-t cells (the event itself is a union of such cells).
    """
    if time_idx.min() == time_idx.max():
        # a deterministic time is one cell check (every grid-mesh weight)
        return cell_mismatch(space.labels[time_idx[0]], x, atol) is None
    for t in np.unique(time_idx):
        sel = time_idx == t
        if cell_mismatch(space.labels[t][sel], x[sel], atol) is not None:
            return False
    return True


def _held_weights(eff: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Finite weights, read-only, with positions on empty intervals stored as +0."""
    if not np.all(np.isfinite(w)):
        raise ParameterError("weights must be finite")
    # positions on empty intervals are never held; store them as 0
    w = np.where(eff[:, 1:] > eff[:, :-1], w, 0.0)
    w.setflags(write=False)
    return w


@dataclass(frozen=True)
class SimpleIntegrand:
    """Position process H_t = sum_j f_j 1_{(tau_{j-1}, tau_j]}(t).

    mesh entries are stopping times tau_0 <= ... <= tau_N with tau_0 = 0
    and tau_N = 1 (infinite values are read as 1: nothing trades after
    the horizon).  weights[:, j-1] holds f_j; weights on empty intervals
    are canonicalized to 0 since the position is never held.
    """

    space: FilteredSpace
    mesh: tuple
    weights: np.ndarray

    def __post_init__(self):
        if len(self.mesh) < 2:
            raise ParameterError("mesh needs at least two stopping times")
        object.__setattr__(self, "mesh", tuple(self.mesh))
        n_steps = self.space.grid.n_steps
        eff = np.empty((self.space.n_atoms, len(self.mesh)), dtype=np.int64)
        for j, tau in enumerate(self.mesh):
            if tau.space is not self.space:
                raise StructuralError("mesh stopping time lives on a different space")
            if not check_stopping_time(tau):
                raise PreconditionError(f"mesh entry {j} is not a stopping time")
            eff[:, j] = np.minimum(tau.index, n_steps)
        if np.any(eff[:, 0] != 0):
            raise ParameterError("mesh must start at time 0")
        if np.any(eff[:, -1] != n_steps):
            raise ParameterError("mesh must end at the horizon (time 1 or infinity)")
        if np.any(np.diff(eff, axis=1) < 0):
            raise ParameterError("mesh stopping times must be non-decreasing")

        w = np.asarray(self.weights, dtype=float)
        if w.shape != (self.space.n_atoms, len(self.mesh) - 1):
            raise ParameterError("weights must have shape (n_atoms, len(mesh) - 1)")
        eff.setflags(write=False)
        w = _held_weights(eff, w)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "_eff", eff)
        for j in range(1, len(self.mesh)):
            if not _measurable_at(self.space, eff[:, j - 1], w[:, j - 1]):
                raise InvariantViolation(
                    f"weight {j} is not measurable at the preceding mesh time"
                )

    @property
    def n_intervals(self) -> int:
        return len(self.mesh) - 1

    def sup_norm(self) -> float:
        return float(np.abs(self.weights).max()) if self.weights.size else 0.0

    @classmethod
    def from_grid_mesh(cls, space: FilteredSpace, grid_indices, weights) -> "SimpleIntegrand":
        """Deterministic mesh 0 = t_0 < ... < t_N = 1 given by grid indices."""
        grid_indices = np.asarray(grid_indices, dtype=np.int64)
        mesh = tuple(
            StoppingTime(space, np.full(space.n_atoms, j, dtype=np.int64)) for j in grid_indices
        )
        return cls(space, mesh, weights)

    @classmethod
    def constant(cls, space: FilteredSpace, value: float) -> "SimpleIntegrand":
        w = np.full((space.n_atoms, 1), float(value))
        return cls.from_grid_mesh(space, [0, space.grid.n_steps], w)

    def truncate(self, tau: StoppingTime) -> "SimpleIntegrand":
        """The strategy H 1_[0, tau]: stop trading once tau occurs.

        Only tau is checked: truncation keeps each mesh entry a stopping
        time and each f_j measurable at tau_{j-1} ^ tau, because f_j is
        held only on {tau > tau_{j-1}}, an event of F_{tau_{j-1} ^ tau}."""
        if tau.space is not self.space:
            raise StructuralError("stopping time lives on a different space")
        if not check_stopping_time(tau):
            raise PreconditionError("truncation time is not a stopping time")
        n_atoms, n_steps = self.space.n_atoms, self.space.grid.n_steps
        # a final zero-position interval (tau_N ^ tau, 1] keeps the mesh
        # ending at the horizon; emptied intervals get +0 weights
        last = StoppingTime(self.space, np.full(n_atoms, n_steps))
        mesh = tuple(t.min_with(tau) for t in self.mesh) + (last,)
        eff = np.minimum(self._eff, tau.index[:, None])
        eff = np.hstack([eff, np.full((n_atoms, 1), n_steps)])
        eff.setflags(write=False)
        return self._rebuilt(mesh, eff, np.hstack([self.weights, np.zeros((n_atoms, 1))]))

    def scale(self, factor: float) -> "SimpleIntegrand":
        """factor * H on the same mesh.  Scaling keeps each weight constant
        on its cells, so the checked mesh is reused and only finiteness is
        rechecked (a weight accepted within ATOL is not re-judged at
        |factor| times its spread)."""
        return self._rebuilt(self.mesh, self._eff, self.weights * float(factor))

    def _rebuilt(self, mesh: tuple, eff: np.ndarray, w: np.ndarray) -> "SimpleIntegrand":
        """An integrand on a mesh whose stopping-time and measurability
        checks the calling operation preserves; weights are still held."""
        out = object.__new__(SimpleIntegrand)
        object.__setattr__(out, "space", self.space)
        object.__setattr__(out, "mesh", mesh)
        object.__setattr__(out, "weights", _held_weights(eff, w))
        object.__setattr__(out, "_eff", eff)
        return out

    def combine(self, a: float, other: "SimpleIntegrand", b: float) -> "SimpleIntegrand":
        """a*self + b*other; both must share the same mesh."""
        if other.space is not self.space:
            raise StructuralError("integrands live on different spaces")
        if len(other.mesh) != len(self.mesh) or any(
            not np.array_equal(s.index, o.index) for s, o in zip(self.mesh, other.mesh)
        ):
            raise StructuralError("integrands must share a common mesh to combine")
        return SimpleIntegrand(self.space, self.mesh, a * self.weights + b * other.weights)


@dataclass(frozen=True)
class StrategySequence:
    """An ordered family of simple integrands plus per-element diagnostics."""

    elements: tuple
    li: tuple = ()
    vr: tuple = ()
    fl: tuple = ()
    fl_threshold: float | None = None
    notes: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))
        if not self.elements:
            raise ParameterError("strategy sequence must be non-empty")

    def __len__(self):
        return len(self.elements)

    def evaluate(self, S: AdaptedProcess, alpha: float) -> "StrategySequence":
        """Return a copy with (LI)/(VR)/(FL at alpha) diagnostics filled in."""
        li = tuple(li_metric(H) for H in self.elements)
        vr = tuple(vr_metric(H, S) for H in self.elements)
        fl = tuple(fl_statistic(self, S, alpha))
        return StrategySequence(self.elements, li=li, vr=vr, fl=fl,
                                fl_threshold=alpha, notes=self.notes)


def integral_process(H: SimpleIntegrand, S: AdaptedProcess) -> AdaptedProcess:
    """The running integral t -> (H.S)_t evaluated at S's sample times."""
    if H.space is not S.space:
        raise StructuralError("integrand and process live on different spaces")
    eff = H._eff
    n_grid = S.space.grid.n_times
    sampled = np.zeros(n_grid, dtype=bool)
    sampled[S.time_index] = True
    if not sampled[eff].all():
        raise StructuralError("mesh times are not all sampled by the process")

    n_atoms = eff.shape[0]
    # H holds f_j on (t_{c-1}, t_c] for j = #{mesh entries with eff < t_c}.
    # Each row's entries are counted per grid time (entry k in bin eff + 1)
    # and accumulated, so below[a, g] = #{k: eff[a, k] < g}, in integers.
    span = n_grid + 1
    bins = eff + 1 + (np.arange(n_atoms, dtype=np.int64) * span)[:, None]
    below = np.cumsum(np.bincount(bins.ravel(), minlength=n_atoms * span).reshape(n_atoms, span), axis=1)
    # zero columns on both sides stand for "before the first" and "after
    # the last" interval, so every j from 0 to N + 1 reads a position
    padded = np.pad(H.weights, ((0, 0), (1, 1)))
    hold = np.take_along_axis(padded, below[:, S.time_index[1:]], axis=1)
    out = np.concatenate(
        [np.zeros((n_atoms, 1)), np.cumsum(hold * np.diff(S.values, axis=1), axis=1)], axis=1
    )
    return AdaptedProcess(S.space, out, S.time_index)


def terminal_and_drawdown(H: SimpleIntegrand, S: AdaptedProcess) -> tuple[np.ndarray, float]:
    """((H.S)_1 per atom, worst drawdown) from one running integral:
    the values `integrate` and `vr_metric` give, at the cost of one."""
    proc = integral_process(H, S)
    return proc.at(1.0).copy(), float(np.maximum(-proc.values, 0.0).max())


def integrate(H: SimpleIntegrand, S: AdaptedProcess, t: float = 1.0) -> np.ndarray:
    """(H.S)_t per atom: sum_j f_j (S_{tau_j ^ t} - S_{tau_{j-1} ^ t})."""
    proc = integral_process(H, S)
    return proc.at(t).copy()


def vr_metric(H: SimpleIntegrand, S: AdaptedProcess) -> float:
    """Worst realized drawdown: sup_t over atoms of the negative part of (H.S)_t."""
    proc = integral_process(H, S)
    return float(np.maximum(-proc.values, 0.0).max())


def li_metric(H: SimpleIntegrand) -> float:
    """Position size bound ||H||_inf."""
    return H.sup_norm()


def fl_statistic(seq: StrategySequence, S: AdaptedProcess, alpha: float) -> np.ndarray:
    """Exact P[(H^n . S)_1^+ >= alpha] per sequence element."""
    return win_probabilities((integrate(H, S, 1.0) for H in seq.elements), S.space.probs, alpha)


def win_probabilities(terminals, probs: np.ndarray, alpha: float) -> np.ndarray:
    """Exact P[G >= alpha] for each array G of terminal gains per atom."""
    if not alpha > 0:
        raise ParameterError(f"threshold alpha must be > 0, got {alpha}")
    return np.array([float(probs[g >= alpha].sum()) for g in terminals])


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
    out = np.empty(len(seq))
    probs = S.space.probs
    for i, H in enumerate(seq.elements):
        terminal = integrate(H, S, 1.0)
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
