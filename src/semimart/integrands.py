"""Simple trading strategies, pathwise Riemann-sum integration, and the
risk / investment / payoff metrics used by the detection pipeline.

A simple integrand holds a position f_j on each stochastic interval
(tau_{j-1}, tau_j] of a stopping-time mesh.  Integration against an
adapted process is the finite sum of position times increment, so every
metric below is an exact finite computation.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolation, ParameterError, PreconditionError, StructuralError
from .space import (
    ATOL,
    AdaptedProcess,
    FilteredSpace,
    StoppingTime,
    cell_mismatch,
    check_stopping_time,
    running_sum,
)


def _measurable_at(space: FilteredSpace, time_idx: np.ndarray, x: np.ndarray) -> bool:
    """x must be constant on partition cells at each atom's own time index.

    This is the finite-space reading of measurability with respect to the
    sigma-algebra of a stopping time: on the event {tau = t}, x is constant
    on the time-t cells (the event itself is a union of such cells).
    """
    if time_idx.min() == time_idx.max():
        # a deterministic time is one cell check (every grid-mesh weight)
        return cell_mismatch(space.labels[time_idx[0]], x, ATOL) is None
    for t in np.unique(time_idx):
        sel = time_idx == t
        if cell_mismatch(space.labels[t][sel], x[sel], ATOL) is not None:
            return False
    return True


def _deterministic(index: np.ndarray, n_steps: int) -> bool:
    """True iff min(tau, 1) is the same grid time on every atom."""
    return min(int(index.min()), n_steps) == min(int(index.max()), n_steps)


def _held_weights(eff: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Finite weights, read-only, with positions on empty intervals stored as +0;
    every integrand is built inside, so a non-finite weight is an internal fault."""
    if not np.all(np.isfinite(w)):
        raise InvariantViolation("strategy weights must be finite")
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

    ``_eff[r, j]`` is min(tau_j, 1) as a grid index.  It has one row,
    shared by every atom, exactly when each of those mesh times is
    deterministic (a grid mesh, or one truncated at a deterministic
    time); otherwise it has one row per atom.
    """

    space: FilteredSpace
    mesh: tuple
    weights: np.ndarray

    def __post_init__(self):
        if len(self.mesh) < 2:
            raise ParameterError("mesh needs at least two stopping times")
        object.__setattr__(self, "mesh", tuple(self.mesh))
        n_steps = self.space.grid.n_steps
        for j, tau in enumerate(self.mesh):
            if tau.space is not self.space:
                raise StructuralError("mesh stopping time lives on a different space")
            if not check_stopping_time(tau):
                raise PreconditionError(f"mesh entry {j} is not a stopping time")
        rows = 1 if all(_deterministic(tau.index, n_steps) for tau in self.mesh) else self.space.n_atoms
        eff = np.empty((rows, len(self.mesh)), dtype=np.int64)
        for j, tau in enumerate(self.mesh):
            eff[:, j] = np.minimum(tau.index[:rows], n_steps)
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

    def sup_norm(self) -> float:
        return float(np.abs(self.weights).max()) if self.weights.size else 0.0

    @classmethod
    def from_grid_mesh(cls, space: FilteredSpace, grid_indices, weights) -> "SimpleIntegrand":
        """Deterministic mesh 0 = t_0 < ... < t_N = 1 given by grid indices."""
        # each entry is a read-only zero-stride view of one frozen grid
        # index, so the mesh holds no per-atom data
        grid_indices = np.array(grid_indices, dtype=np.int64)
        grid_indices.setflags(write=False)
        mesh = tuple(
            StoppingTime(space, np.broadcast_to(grid_indices[k:k + 1], (space.n_atoms,)))
            for k in range(grid_indices.size)
        )
        return cls(space, mesh, weights)

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
        stop = tau.index[:1] if _deterministic(tau.index, n_steps) else tau.index
        eff = np.minimum(self._eff, stop[:, None])
        if len(eff) > 1 and (eff == eff[0]).all():
            eff = eff[:1]  # a deterministic tau can leave every mesh time deterministic
        eff = np.hstack([eff, np.full((len(eff), 1), n_steps)])
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


@dataclass(frozen=True)
class StrategySequence:
    """An ordered family of simple integrands plus per-element diagnostics."""

    elements: tuple
    li: tuple = ()
    vr: tuple = ()
    fl: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))
        if not self.elements:
            raise ParameterError("strategy sequence must be non-empty")


def integral_process(H: SimpleIntegrand, S: AdaptedProcess) -> AdaptedProcess:
    """The running integral t -> (H.S)_t evaluated at S's sample times."""
    if H.space is not S.space:
        raise StructuralError("integrand and process live on different spaces")
    eff = H._eff
    n_grid, step = S.space.grid.n_times, S.step
    if not (eff % step == 0).all():
        raise StructuralError("mesh times are not all sampled by the process")

    rows = eff.shape[0]
    # H holds f_j on (t_{c-1}, t_c] for j = #{mesh entries with eff < t_c}.
    # Each row's entries are counted per grid time (entry k in bin eff + 1)
    # and accumulated, so below[r, g] = #{k: eff[r, k] < g}, in integers.
    # A deterministic mesh is one row, which the gather below broadcasts
    # over the atoms.
    span = n_grid + 1
    bins = eff + 1 + (np.arange(rows, dtype=np.int64) * span)[:, None]
    below = np.cumsum(np.bincount(bins.ravel(), minlength=rows * span).reshape(rows, span), axis=1)
    # zero columns on both sides stand for "before the first" and "after
    # the last" interval, so every j from 0 to N + 1 reads a position
    padded = np.pad(H.weights, ((0, 0), (1, 1)))
    hold = np.take_along_axis(padded, below[:, step:n_grid:step], axis=1)
    del padded
    hold *= np.diff(S.values, axis=1)
    return AdaptedProcess(S.space, running_sum(hold), S.level)


def terminal_and_drawdown(H: SimpleIntegrand, S: AdaptedProcess) -> tuple[np.ndarray, float]:
    """((H.S)_1 per atom, worst drawdown) from one running integral."""
    proc = integral_process(H, S)
    # max(0.0, x) keeps +0.0 when x is -0.0, as np.maximum(-v, 0.0).max() does
    return proc.values[:, -1].copy(), max(0.0, -float(proc.values.min()))


def integrate(H: SimpleIntegrand, S: AdaptedProcess) -> np.ndarray:
    """(H.S)_1 per atom: sum_j f_j (S_{tau_j} - S_{tau_{j-1}})."""
    return integral_process(H, S).values[:, -1].copy()


def vr_metric(H: SimpleIntegrand, S: AdaptedProcess) -> float:
    """Worst realized drawdown: sup_t over atoms of the negative part of (H.S)_t."""
    return float(np.maximum(-integral_process(H, S).values, 0.0).max())


def li_metric(H: SimpleIntegrand) -> float:
    """Position size bound ||H||_inf."""
    return H.sup_norm()


def win_probabilities(terminals, probs: np.ndarray, alpha: float) -> np.ndarray:
    """Exact P[G >= alpha] for each array G of terminal gains per atom."""
    if not alpha > 0:
        raise ParameterError(f"threshold alpha must be > 0, got {alpha}")
    return np.array([float(probs[g >= alpha].sum()) for g in terminals])

