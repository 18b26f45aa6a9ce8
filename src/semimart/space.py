"""Finite filtered probability spaces on dyadic time grids.

A space is a finite set of atoms with positive probabilities and one
partition of the atom set per grid time; partitions refine as time
advances.  Conditional expectation is an exact cell-wise weighted
average, so every identity in the package can be checked to float
precision instead of sampled.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    InvariantViolation,
    ParameterError,
    PreconditionError,
    ResourceLimitError,
    StructuralError,
)

ATOL = 1e-12
MAX_TREE_LEVEL = 4
_INT32 = np.iinfo(np.int32)


@dataclass(frozen=True)
class DyadicGrid:
    """The time grid {0, 1/2^n, 2/2^n, ..., 1}."""

    level: int

    def __post_init__(self):
        if self.level < 0 or int(self.level) != self.level:
            raise ParameterError(f"grid level must be a non-negative integer, got {self.level}")

    @property
    def n_steps(self) -> int:
        return 1 << self.level

    @property
    def n_times(self) -> int:
        return self.n_steps + 1

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.n_times) / self.n_steps


def _frozen(a: np.ndarray) -> np.ndarray:
    """a itself when no one can write its data, else a read-only copy.

    Data no one can write is read-only down the whole base chain: frozen
    owned data, a view of it, or a zero-stride broadcast of it.  A
    writeable array, or a view of one, is copied, so the caller's later
    writes never reach the result.
    """
    base = a
    while isinstance(base, np.ndarray) and not base.flags.writeable:
        if base.base is None:
            return a
        base = base.base
    out = np.array(a, copy=True)
    out.setflags(write=False)
    return out


def _handed_over(a: np.ndarray) -> np.ndarray:
    """a, a result just computed that nothing else holds, made read-only
    together with the buffer it views, so that `_frozen` shares it."""
    a.setflags(write=False)
    if a.base is not None:
        a.base.setflags(write=False)
    return a


def running_sum(d: np.ndarray) -> np.ndarray:
    """The running sum of d's columns from 0, one column wider than d;
    built in place and handed over read-only, so that `_frozen` shares it."""
    out = np.empty((d.shape[0], d.shape[1] + 1))
    out[:, 0] = 0.0
    np.cumsum(d, axis=1, out=out[:, 1:])
    out.setflags(write=False)
    return out


MISMATCH_BLOCK = 1 << 16  # cells per block that `cell_mismatch` checks at once


def cell_mismatch(labels: np.ndarray, x: np.ndarray, atol: float = 0.0) -> tuple[int, int] | None:
    """First (row, atom) where row r of x is not constant on the cells of labels[r], else None.

    Rows pair up (a 1-d pair is one row); each cell's first atom is its
    representative, and atol = 0 asks for equality (boolean or integer x).
    Rows are checked in blocks of about MISMATCH_BLOCK cells, in row
    order, up to the first bad block, so the temporaries are one block's.
    """
    labels, x = np.atleast_2d(labels), np.atleast_2d(x)
    rows = max(1, MISMATCH_BLOCK // labels.shape[1])
    for r in range(0, labels.shape[0], rows):
        bad = _block_mismatch(labels[r:r + rows], x[r:r + rows], atol)
        if bad is not None:
            return r + bad[0], bad[1]
    return None


def _block_mismatch(labels: np.ndarray, x: np.ndarray, atol: float) -> tuple[int, int] | None:
    """`cell_mismatch` on one block of rows, all at once."""
    # walk atoms in reverse: where writes to rep repeat an id the last one
    # wins, and that is the first atom of the cell
    labels = labels[:, ::-1]
    x = np.ascontiguousarray(x[:, ::-1])
    stride = int(labels.max()) + 1
    # one dense id per (row, cell) lets all rows share one representative lookup
    glob = labels + (np.arange(labels.shape[0]) * stride)[:, None]
    rep = np.zeros(labels.shape[0] * stride, dtype=x.dtype)
    rep[glob] = x
    dev = rep[glob]
    bad = dev != x if atol == 0 else np.abs(np.subtract(x, dev, out=dev), out=dev) > atol
    return divmod(int(bad[:, ::-1].argmax()), bad.shape[1]) if bad.any() else None


@dataclass(frozen=True)
class FilteredSpace:
    """Atoms, probabilities, and a refining partition per grid time.

    ``labels[j, a]`` is the cell id of atom ``a`` in the partition at
    grid time index ``j``; ids are dense integers starting at 0, stored
    as int32 (an id is below the atom count).
    """

    grid: DyadicGrid
    probs: np.ndarray
    labels: np.ndarray
    # time index -> cell masses, of the partitions `cell_average` keeps
    _masses: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        probs = _frozen(np.asarray(self.probs, dtype=float))
        labels = np.asarray(self.labels)
        if labels.dtype != np.int32:
            if labels.size and (labels.min() < _INT32.min or labels.max() > _INT32.max):
                raise ParameterError("labels must be int32 cell ids")
            labels = labels.astype(np.int32)
            labels.setflags(write=False)  # fresh, so kept uncopied
        labels = _frozen(labels)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "labels", labels)
        if probs.ndim != 1 or probs.size == 0:
            raise ParameterError("probs must be a non-empty 1-d array")
        if np.any(probs <= 0):
            raise InvariantViolation("all atom probabilities must be > 0")
        if abs(probs.sum() - 1.0) > ATOL:
            raise InvariantViolation(f"probabilities sum to {probs.sum()!r}, not 1 within {ATOL}")
        if labels.shape != (self.grid.n_times, probs.size):
            raise ParameterError(
                f"labels must have shape (n_times, n_atoms) = {(self.grid.n_times, probs.size)}"
            )
        bad = cell_mismatch(labels[1:], labels[:-1])  # each time-j cell inside one time-(j-1) cell
        if bad is not None:
            raise InvariantViolation(f"partition at time index {bad[0] + 1} does not refine index {bad[0]}")

    @property
    def n_atoms(self) -> int:
        return self.probs.size

    def labels_at(self, index: np.ndarray) -> np.ndarray:
        """labels[index] of increasing grid indices: a view, not a copy,
        when they are evenly spaced, as the whole grid and a level's are."""
        index = np.asarray(index)
        step = int(index[1] - index[0]) if index.size > 1 else 1
        if index.size and np.array_equal(index, np.arange(index[0], index[-1] + 1, step)):
            return self.labels[index[0]:index[-1] + 1:step]
        return self.labels[index]

    def cell_average(self, x: np.ndarray, j: int) -> np.ndarray:
        """Probability-weighted average of x over each cell at time index j.

        The cell masses of a time are computed and checked once and kept
        when the partition has at most half as many cells as atoms.  A
        finer one is nearly one mass per atom, and on a sampled ensemble
        most times have one, so keeping them all would hold about one
        (atoms x times) array for the space's life."""
        lab = self.labels[j].astype(np.intp)  # widened once for the three index uses
        mass = self._masses.get(int(j))
        if mass is None:
            mass = np.bincount(lab, weights=self.probs)
            if np.any(mass <= 0):
                raise InvariantViolation("partition cell with zero probability")
            if 2 * mass.size <= self.n_atoms:
                self._masses[int(j)] = mass
        avg = np.bincount(lab, weights=self.probs * x) / mass
        return avg[lab]

    def conditional_path(self, x: np.ndarray) -> np.ndarray:
        """E[x | F_t] at every grid time, one column per time; read-only,
        so a process built on it keeps it uncopied."""
        return _handed_over(np.column_stack([self.cell_average(x, j) for j in range(self.grid.n_times)]))

    def expectation(self, x: np.ndarray) -> float:
        return float(self.probs @ x)


@dataclass(frozen=True)
class StoppingTime:
    """A grid time (or infinity) per atom.

    ``index[a]`` is the grid time index for atom ``a``; the sentinel
    ``n_times`` (one past the final index) encodes infinity.
    """

    space: FilteredSpace
    index: np.ndarray

    def __post_init__(self):
        idx = _frozen(np.asarray(self.index, dtype=np.int64))
        object.__setattr__(self, "index", idx)
        if idx.shape != (self.space.n_atoms,):
            raise ParameterError("stopping time needs one grid index per atom")
        if np.any(idx < 0) or np.any(idx > self.inf_index):
            raise ParameterError("stopping-time indices out of grid range")

    @property
    def inf_index(self) -> int:
        return self.space.grid.n_times

    def prob_finite(self) -> float:
        return float(self.space.probs[self.index < self.inf_index].sum())

    def min_with(self, other: "StoppingTime") -> "StoppingTime":
        if other.space is not self.space:
            raise StructuralError("stopping times live on different spaces")
        # a time never later than the other is the minimum itself, shared uncopied
        if self.index.max() <= other.index.min():
            return self
        if other.index.max() <= self.index.min():
            return other
        return StoppingTime(self.space, np.minimum(self.index, other.index))


def tree_innovations(level: int) -> np.ndarray:
    """All +/-1 sequences of length 2^level, one row per atom; the row of
    atom a spells a's bits, most significant first, with bit 0 -> +1."""
    if level < 0 or int(level) != level:
        raise ParameterError(f"level must be a non-negative integer, got {level}")
    if level > MAX_TREE_LEVEL:
        raise ResourceLimitError(
            f"level-{level} full tree needs {2 ** (2 ** level)} atoms; cap is level {MAX_TREE_LEVEL} "
            f"({2 ** (2 ** MAX_TREE_LEVEL)} atoms) — use the ensemble mode beyond the cap"
        )
    steps = 1 << level
    atoms = np.arange(1 << steps, dtype=np.int64)
    bits = (atoms[:, None] >> (steps - 1 - np.arange(steps))[None, :]) & 1
    return (1 - 2 * bits).astype(np.int8)


@dataclass(frozen=True)
class AdaptedProcess:
    """Grid-indexed values per atom, constant on partition cells.

    ``time_index`` maps columns to grid indices: every index of the
    grid, or any increasing subset of them (used for processes sampled
    at a coarser dyadic level).
    """

    space: FilteredSpace
    values: np.ndarray
    time_index: np.ndarray | None = None

    def __post_init__(self):
        vals = _frozen(np.asarray(self.values, dtype=float))
        object.__setattr__(self, "values", vals)
        if self.time_index is None:
            ti = np.arange(self.space.grid.n_times)
        else:
            ti = np.asarray(self.time_index, dtype=np.int64)
        ti = _frozen(ti)
        object.__setattr__(self, "time_index", ti)
        if vals.ndim != 2 or vals.shape[0] != self.space.n_atoms:
            raise ParameterError("values must have shape (n_atoms, n_times)")
        if vals.shape[1] != ti.size:
            raise ParameterError("values and time_index disagree on the number of columns")
        if np.any(np.diff(ti) <= 0) or ti[0] < 0 or ti[-1] >= self.space.grid.n_times:
            raise ParameterError("time_index must be strictly increasing within the grid")
        if not np.all(np.isfinite(vals)):
            raise ParameterError("process values must be finite")

    @property
    def n_times(self) -> int:
        return self.time_index.size

    def increments(self) -> np.ndarray:
        return np.diff(self.values, axis=1)

    def sup_norm(self) -> float:
        return float(np.abs(self.values).max())

    def restrict(self, grid_indices: np.ndarray) -> "AdaptedProcess":
        """Subsample onto the given grid-time indices (must be sampled)."""
        pos = np.searchsorted(self.time_index, grid_indices)
        if np.any(pos >= self.time_index.size) or np.any(self.time_index[pos] != grid_indices):
            raise ParameterError("process is not sampled at all requested times")
        # the gather is F-ordered, a layout the reductions over it inherit
        return AdaptedProcess(self.space, _handed_over(self.values[:, pos]), grid_indices)

    def nonadapted_at(self) -> tuple[int, int] | None:
        """(column, atom) of the first value not constant on its cell, or None."""
        return cell_mismatch(self.space.labels_at(self.time_index), self.values.T, ATOL)

    def is_adapted(self) -> bool:
        return self.nonadapted_at() is None

    def require_adapted(self) -> None:
        """Reject values that peek past their filtration, a non-constant S_0 included."""
        bad = self.nonadapted_at()
        if bad is not None:
            c, a = bad
            cell = self.space.labels[self.time_index[c]]
            first = int(np.argmax(cell == cell[a]))
            raise ParameterError(
                f"atom {a}.v[{c}] = {self.values[a, c]:.17g} differs from atom {first}.v[{c}] = "
                f"{self.values[first, c]:.17g} in the same cell at time index {self.time_index[c]}: "
                "the source is not adapted")

    def _same_shape(self, other: "AdaptedProcess"):
        if other.space is not self.space:
            raise StructuralError("processes live on different spaces")
        if not np.array_equal(other.time_index, self.time_index):
            raise StructuralError("processes are sampled on different time sets")

    def __add__(self, other):
        self._same_shape(other)
        return AdaptedProcess(self.space, _handed_over(self.values + other.values), self.time_index)

    def __sub__(self, other):
        self._same_shape(other)
        return AdaptedProcess(self.space, _handed_over(self.values - other.values), self.time_index)

    def scale(self, factor: float) -> "AdaptedProcess":
        return AdaptedProcess(self.space, _handed_over(self.values * factor), self.time_index)

    def shift(self, offset: np.ndarray) -> "AdaptedProcess":
        """Add a per-atom constant (an F_0-measurable shift)."""
        off = np.asarray(offset, dtype=float).reshape(-1, 1)
        return AdaptedProcess(self.space, _handed_over(self.values + off), self.time_index)


def check_stopping_time(tau: StoppingTime) -> bool:
    """True iff {tau <= t} is a union of partition cells for every grid t."""
    space = tau.space
    idx = tau.index
    if idx.size and idx.min() == idx.max():
        return True  # deterministic times always qualify
    events = idx[None, :] <= np.arange(space.grid.n_times)[:, None]
    return cell_mismatch(space.labels, events) is None


def require_stopping_time(tau: StoppingTime, space: FilteredSpace) -> None:
    """Refuse tau as `stop_process` does: a time on another space, or one
    that is not a stopping time."""
    if tau.space is not space:
        raise StructuralError("stopping time and process live on different spaces")
    if not check_stopping_time(tau):
        raise PreconditionError("stop_process requires a genuine stopping time")


def stop_process(S: AdaptedProcess, tau: StoppingTime) -> AdaptedProcess:
    """Freeze S at tau: values become S_{t ∧ tau} per atom.

    When tau stops no atom before S's last sampled time (it is infinite,
    or equals that time), the result is S itself, shared uncopied;
    processes are read-only, and tau is validated either way.
    """
    require_stopping_time(tau, S.space)
    # position of tau inside S's own column set; tau must be sampled by S
    finite = tau.index < tau.inf_index
    pos = np.searchsorted(S.time_index, np.minimum(tau.index, S.time_index[-1]))
    bad = finite & ((pos >= S.time_index.size) | (S.time_index[np.minimum(pos, S.time_index.size - 1)] != tau.index))
    if np.any(bad):
        raise StructuralError("stopping time takes values outside the process's sample times")
    cap = np.where(finite, pos, S.n_times - 1)
    if cap.min() == S.n_times - 1:
        return S
    frozen = S.values[np.arange(S.space.n_atoms), cap][:, None]
    values = np.where(np.arange(S.n_times) > cap[:, None], frozen, S.values)
    return AdaptedProcess(S.space, _handed_over(values), S.time_index)


def first_hitting_time(process: AdaptedProcess, hit: np.ndarray, start_col: int = 0) -> StoppingTime:
    """First sampled time whose column satisfies ``hit`` (bool per atom, column).

    ``hit`` must be computable from the path up to that time for the
    result to be a stopping time; callers pass running-functional events.
    """
    hit = np.asarray(hit, dtype=bool)
    if hit.shape != process.values.shape:
        raise ParameterError("hit mask must match the process's shape")
    padded = np.concatenate([hit[:, start_col:], np.ones((hit.shape[0], 1), dtype=bool)], axis=1)
    first = padded.argmax(axis=1) + start_col
    idx = np.where(first < process.n_times, process.time_index[np.minimum(first, process.n_times - 1)],
                   process.space.grid.n_times)
    return StoppingTime(process.space, idx)
