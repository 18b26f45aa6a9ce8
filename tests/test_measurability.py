"""Property tests: every measurability check against a per-cell brute force.

Spaces are random refining partitions of a shuffled atom set with
non-uniform dyadic probabilities, so cells are not contiguous and the
first atom of a cell is not its smallest label.  Values are whole
numbers, so "constant within the tolerance" and "one distinct value"
are the same question.
"""

import tracemalloc

import numpy as np
import pytest

import semimart.pipeline as pipeline
import semimart.space as space_module
from semimart.doob import (
    StageCertificate,
    _ladder_search,
    _predictable,
    doob_decompose,
    ladder,
    restrict_to_level,
    sigma_stop,
    tau_stop,
)
from semimart.errors import InvariantViolation
from semimart.integrands import _measurable_at
from semimart.komlos import ConvexWeights, WeightBlock
from semimart.pipeline import PAD_COPIES, continuous_stage
from semimart.space import (
    ATOL,
    AdaptedProcess,
    DyadicGrid,
    FilteredSpace,
    StoppingTime,
    cell_mismatch,
    check_stopping_time,
    first_hitting_time,
    stop_process,
)

from helpers import per_position_mixes, recorded_scripts

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


def first_mismatch(labels, x):
    """The first (row, atom), rows then atoms, where x differs from its
    value at the first atom of the atom's cell in labels[row]; one row at
    a time, with the cells' first atoms from np.unique."""
    for r, (lab, row) in enumerate(zip(labels, x)):
        _, first, inverse = np.unique(lab, return_index=True, return_inverse=True)
        bad = np.flatnonzero(row != row[first[inverse]])
        if bad.size:
            return r, int(bad[0])
    return None


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
    assert first_mismatch(space.labels, values.T) == expected
    assert S.nonadapted_at() == expected
    assert S.is_adapted() == all(constant_on(lab, values[:, c]) for c, lab in enumerate(space.labels))


@pytest.mark.parametrize(
    "faults, expected",
    [((), None), (((0, 12345),), (0, 12345)), (((16, 54321),), (16, 54321)),
     (((16, 4321), (3, 60000)), (3, 60000))],
    ids=["none", "first-row", "last-row", "two-rows"],
)
@pytest.mark.parametrize("atol", [0.0, ATOL], ids=["exact", "atol"])
def test_cell_mismatch_checks_a_large_array_in_blocks(faults, expected, atol):
    """17 x 65,536, the L4 tree's (times, atoms): the first (row, atom) is
    the reference's, and the traced peak stays under two blocks' worth,
    a block's being the peak of the call on one block of rows."""
    rng = np.random.default_rng(1)
    labels = rng.integers(0, 64, (17, 1 << 16)).astype(np.int32)
    x = cell_values(rng, labels).T.copy()
    for row, atom in faults:  # past every cell's first atom, so each is a mismatch
        x[row, atom] += 1.0
    assert first_mismatch(labels, x) == expected
    rows = max(1, space_module.MISMATCH_BLOCK // labels.shape[1])
    peaks = []
    for n_rows in (rows, labels.shape[0]):
        tracemalloc.start()
        try:
            found = cell_mismatch(labels[:n_rows], x[:n_rows], atol)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert found == expected
    assert peaks[1] < 2 * peaks[0]


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


@pytest.mark.parametrize("seed", SEEDS)
def test_conditional_path_tower_property(seed):
    """E[E[x | F_t] | F_u] = E[x | F_u] for every u <= t."""
    rng = np.random.default_rng(seed)
    space = random_space(rng)
    cond = space.conditional_path(rng.standard_normal(space.n_atoms))
    for t in range(space.grid.n_times):
        for u in range(t + 1):
            assert np.abs(space.cell_average(cond[:, t], u) - cond[:, u]).max() <= ATOL


def random_stopping_times(rng, space):
    """Stopping times from random cell events, plus the two that stop no
    atom before the last time (never, and the last time itself)."""
    n_times = space.grid.n_times
    zero = AdaptedProcess(space, np.zeros((space.n_atoms, n_times)))
    taus = [first_hitting_time(zero, cell_values(rng, space.labels) > 1) for _ in range(4)]
    return taus + [StoppingTime(space, np.full(space.n_atoms, k)) for k in (n_times, n_times - 1)]


@pytest.mark.parametrize("seed", SEEDS)
def test_stopping_twice_is_stopping_at_the_minimum(seed):
    rng = np.random.default_rng(seed)
    space = random_space(rng)
    S = AdaptedProcess(space, np.column_stack([rng.standard_normal(lab.max() + 1)[lab] for lab in space.labels]))
    taus = random_stopping_times(rng, space)
    for s in taus:
        for t in taus:
            twice = stop_process(stop_process(S, s), t).values
            once = stop_process(S, s.min_with(t)).values
            assert np.array_equal(twice.view(np.uint64), once.view(np.uint64))


@pytest.mark.parametrize("seed", SEEDS)
def test_ladder_rungs_match_the_stopping_times(seed):
    """Each rung's probability is P[sigma_n(c) < inf] (P[tau_n(c) < inf])
    bit for bit.  The probabilities fall along the ladder and a rung
    passes exactly when its probability is below eps/2, so a search up to
    c must fail at eps/2 = P[stop_c < inf] and, at the next float above,
    stop at the first rung with that probability."""
    rng = np.random.default_rng(seed)
    space = random_space(rng)
    S = AdaptedProcess(space, cell_values(rng, space.labels) / 2.0)
    for n in range(1, space.grid.level + 1):
        D = doob_decompose(S, n)
        qv_total = np.cumsum(restrict_to_level(S, n).increments() ** 2, axis=1)[:, -1]
        tv_total = np.cumsum(np.abs(D.A.increments()), axis=1)[:, -1]
        for name, total, offset, stop in (
            ("sigma", qv_total, 4.0, lambda c: sigma_stop(S, n, c)),
            ("tau", tv_total, 2.0, lambda c: tau_stop(D, c)),
        ):
            p = {c: stop(c).prob_finite() for c in ladder(64.0)}
            for c in p:
                def search(bar):
                    return _ladder_search(name, space, [total], offset, 2.0 * bar, c)[0]

                assert search(p[c]) is None
                assert search(np.nextafter(p[c], np.inf)) == min(r for r in p if p[r] == p[c])


def random_rho(rng, Sn, eps):
    """A stopping time on Sn's sample times from random cell events,
    redrawn until it stops some paths before the last time and stops with
    probability below eps."""
    space = Sn.space
    while True:
        hit = np.column_stack(
            [rng.integers(0, 4, lab.max() + 1)[lab] == 0 for lab in space.labels[Sn.time_index]]
        )
        rho = first_hitting_time(Sn, hit)
        if (rho.index < space.grid.n_times - 1).any() and rho.prob_finite() < eps:
            return rho


def random_extraction(rng, n_levels):
    """A stand-in for the extraction over the padded positions: a random
    convex block at every step, about a third of its weights zero, where the blocks from step n_levels - 1
    on touch only the finest level's copies, so those steps share the
    limit and the subsequence selection passes."""
    K = n_levels + PAD_COPIES

    def extract(vectors, tol, **_):
        blocks = []
        for s in range(K - 1):
            start = s if s >= n_levels - 1 else int(rng.integers(s, K - 1))
            width = int(rng.integers(1, K - start + 1))
            mu = rng.dirichlet(np.ones(width))
            # zero weights, which the stage skips and the reference adds
            zero = rng.random(width) < 0.3
            if not zero.all():
                mu[zero] = 0.0
            blocks.append(WeightBlock(start, mu / mu.sum()))
        cw = ConvexWeights(tuple(blocks), (0.0,) * (K - 1), n_levels - 1, tol, ())
        return cw, cw.combination(K - 2, vectors)

    return extract


@pytest.mark.parametrize("seed", SEEDS)
def test_level_mixes_match_the_per_position_reference(seed, monkeypatch):
    """The continuous stage mixes each level once and reads padded
    positions through an index; its script-M and script-A must equal the
    per-position mixing bit for bit, with stopping times that cut some
    paths early so that R has zeros."""
    rng = np.random.default_rng(seed)
    space = random_space(rng)
    # |S| <= 3/8 keeps the extension's drift inside its 2-band on any partition
    values = cell_values(rng, space.labels) / 8.0
    values[:, 0] = 0.0
    S = AdaptedProcess(space, values)
    eps = 0.5
    certs = []
    for n in range(1, space.grid.level + 1):
        D = doob_decompose(S, n)
        rho = random_rho(rng, restrict_to_level(S, n), eps)
        certs.append(StageCertificate(
            level=n, eps=eps, C=256.0, rho=rho,
            tv_stopped=float(np.abs(stop_process(D.A, rho).increments()).sum(axis=1).max()),
            m_l2_stopped=float(space.expectation(stop_process(D.M, rho).values[:, -1] ** 2)),
            p_stop=rho.prob_finite(), m_terminal=D.M.values[:, -1],
        ))
    made = []
    extract = random_extraction(rng, len(certs))

    def recorded(*args, **kwargs):
        made.append(extract(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(pipeline, "extract_convex", recorded)
    scripts = recorded_scripts(monkeypatch)
    cstage = continuous_stage(S, certs)
    expected = per_position_mixes(S, certs, made[0][0])
    assert len(cstage.steps) == len(scripts) == len(expected)
    for (m_script, a_script), (m_ref, a_ref) in zip(scripts, expected):
        assert np.array_equal(m_script.values.view(np.uint64), m_ref.view(np.uint64))
        assert np.array_equal(a_script.values.view(np.uint64), a_ref.view(np.uint64))
