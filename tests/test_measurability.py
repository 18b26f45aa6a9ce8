"""Property tests: every measurability check against a per-cell brute force.

Spaces are random refining partitions of a shuffled atom set with
non-uniform dyadic probabilities, so cells are not contiguous and the
first atom of a cell is not its smallest label.  Values are whole
numbers, so "constant within the tolerance" and "one distinct value"
are the same question.
"""

import numpy as np
import pytest

from semimart.doob import _predictable
from semimart.errors import InvariantViolation
from semimart.integrands import _measurable_at
from semimart.space import (
    AdaptedProcess,
    DyadicGrid,
    FilteredSpace,
    StoppingTime,
    check_stopping_time,
    first_hitting_time,
)

SEEDS = range(25)


def random_labels(rng, n_atoms, n_times):
    """A refining partition per time, ids dense from 0 at every time."""
    labels = np.zeros((n_times, n_atoms), dtype=np.int64)
    labels[0] = rng.integers(0, 2, n_atoms)
    for j in range(1, n_times):
        split = rng.integers(0, 3, n_atoms) * (rng.random() < 0.7)
        _, labels[j] = np.unique(labels[j - 1] * 3 + split, return_inverse=True)
    _, labels[0] = np.unique(labels[0], return_inverse=True)
    return labels


def random_space(rng):
    grid = DyadicGrid(int(rng.integers(1, 4)))
    n_atoms = int(rng.integers(2, 40))
    # dyadic numerators summing to 2^10: exact, non-uniform probabilities
    cuts = np.sort(rng.choice(np.arange(1, 1024), n_atoms - 1, replace=False))
    probs = np.diff(np.concatenate([[0], cuts, [1024]])) / 1024.0
    return FilteredSpace(grid, probs, random_labels(rng, n_atoms, grid.n_times))


def constant_on(cells, x) -> bool:
    return all(len(set(x[cells == c].tolist())) == 1 for c in np.unique(cells))


def cell_values(rng, labels):
    """Whole-number values, one per cell of each row of labels, as (atoms, rows)."""
    labels = np.atleast_2d(labels)
    return np.column_stack([rng.integers(-3, 4, lab.max() + 1)[lab] for lab in labels]).astype(float)


def maybe_move(rng, x):
    """Half the time, shift one entry so that it may differ inside its cell."""
    if rng.random() < 0.5:
        x.flat[rng.integers(x.size)] += rng.integers(1, 3)
    return x


@pytest.mark.parametrize("seed", SEEDS)
def test_refinement_check(seed):
    rng = np.random.default_rng(seed)
    space = random_space(rng)
    labels = space.labels.copy()
    if rng.random() < 0.5:
        j = int(rng.integers(1, labels.shape[0]))
        labels[j, rng.integers(labels.shape[1])] = rng.integers(labels[j].max() + 1)
    refines = all(constant_on(labels[j], labels[j - 1]) for j in range(1, labels.shape[0]))
    if refines:
        FilteredSpace(space.grid, space.probs, labels)
    else:
        with pytest.raises(InvariantViolation, match="does not refine"):
            FilteredSpace(space.grid, space.probs, labels)


@pytest.mark.parametrize("seed", SEEDS)
def test_is_adapted_and_first_mismatch(seed):
    rng = np.random.default_rng(seed)
    space = random_space(rng)
    values = maybe_move(rng, cell_values(rng, space.labels))
    S = AdaptedProcess(space, values)
    expected = None
    for c, lab in enumerate(space.labels):
        for a in range(space.n_atoms):
            first = int(np.flatnonzero(lab == lab[a])[0])
            if values[a, c] != values[first, c]:
                expected = (c, a)
                break
        if expected:
            break
    assert S.nonadapted_at() == expected
    assert S.is_adapted() == all(constant_on(lab, values[:, c]) for c, lab in enumerate(space.labels))


@pytest.mark.parametrize("seed", SEEDS)
def test_check_stopping_time(seed):
    rng = np.random.default_rng(seed)
    space = random_space(rng)
    n_times = space.grid.n_times
    if rng.random() < 0.5:
        hit = maybe_move(rng, cell_values(rng, space.labels)) > 1
        idx = first_hitting_time(AdaptedProcess(space, np.zeros(hit.shape)), hit).index
    else:
        idx = rng.integers(0, n_times + 1, space.n_atoms)
    expected = all(constant_on(space.labels[t], idx <= t) for t in range(n_times))
    assert check_stopping_time(StoppingTime(space, idx)) == expected


@pytest.mark.parametrize("seed", SEEDS)
def test_predictable(seed):
    rng = np.random.default_rng(seed)
    space = random_space(rng)
    steps = maybe_move(rng, cell_values(rng, space.labels[:-1]))
    A = AdaptedProcess(space, np.column_stack([np.zeros(space.n_atoms), steps]))
    expected = all(constant_on(lab, steps[:, c]) for c, lab in enumerate(space.labels[:-1]))
    assert _predictable(A) == expected


@pytest.mark.parametrize("seed", SEEDS)
def test_integrand_measurable_at(seed):
    rng = np.random.default_rng(seed)
    space = random_space(rng)
    time_idx = rng.integers(0, space.grid.n_times, space.n_atoms)
    x = rng.integers(-2, 3, space.n_atoms).astype(float)
    if rng.random() < 0.5:
        # one value per (time, cell) pair makes the weight measurable
        key = time_idx * space.n_atoms + space.labels[time_idx, np.arange(space.n_atoms)]
        x = rng.integers(-2, 3, key.max() + 1)[key].astype(float)
    expected = all(
        constant_on(space.labels[t][time_idx == t], x[time_idx == t]) for t in np.unique(time_idx)
    )
    assert _measurable_at(space, time_idx, x) == expected


@pytest.mark.parametrize("seed", SEEDS)
def test_integrand_measurable_at_deterministic_time(seed):
    rng = np.random.default_rng(seed)
    space = random_space(rng)
    t = int(rng.integers(0, space.grid.n_times))
    x = maybe_move(rng, cell_values(rng, space.labels[t])[:, 0])
    time_idx = np.full(space.n_atoms, t)
    assert _measurable_at(space, time_idx, x) == constant_on(space.labels[t], x)


@pytest.mark.parametrize("seed", SEEDS)
def test_conditional_path_matches_cell_means(seed):
    rng = np.random.default_rng(seed)
    space = random_space(rng)
    x = rng.standard_normal(space.n_atoms)
    got = space.conditional_path(x)
    for j, lab in enumerate(space.labels):
        for c in np.unique(lab):
            cell = lab == c
            mean = (space.probs[cell] * x[cell]).sum() / space.probs[cell].sum()
            assert np.allclose(got[cell, j], mean, rtol=0, atol=1e-12)
