"""Property tests: the running integral and the integrand shortcuts
against their slow paths.

Spaces are the random refining partitions of `test_measurability`
(shuffled atoms, non-uniform dyadic probabilities).  Process values are
whole numbers and weights are halves, so every sum is exact and the
brute force must agree bit for bit, not just within a tolerance.
"""

import numpy as np
import pytest

from semimart.doob import restrict_to_level
from semimart.errors import InvariantViolation, ParameterError, PreconditionError, StructuralError
from semimart.generators import GeneratorSpec, generate
from semimart.integrands import (
    SimpleIntegrand,
    StrategySequence,
    integral_process,
    terminal_and_drawdown,
)
from semimart.pipeline import DetectConfig, detect
from semimart.space import AdaptedProcess, StoppingTime, first_hitting_time, tree_innovations
from helpers import binary_tree_space, constant_integrand, evaluate
from test_measurability import SEEDS, cell_values, random_space


def random_stop(rng, S):
    """A stopping time on S's positive sample times (infinity included)."""
    hit = cell_values(rng, S.space.labels[S.time_index]) >= rng.integers(1, 4)
    return first_hitting_time(S, hit, start_col=1)


def random_integrand(rng, S):
    """A simple integrand whose mesh S samples: non-decreasing random
    stopping times between 0 and the horizon (time 1 or infinity), each
    weight read off the cell of its atom at the preceding mesh time, and
    half the time truncated at a further stopping time, which empties
    intervals."""
    space = S.space
    n_atoms = space.n_atoms
    idx = [np.zeros(n_atoms, dtype=np.int64)]
    for _ in range(int(rng.integers(0, 4))):
        idx.append(np.maximum(idx[-1], random_stop(rng, S).index))
    idx.append(np.full(n_atoms, space.grid.n_steps if rng.random() < 0.5 else space.grid.n_times))
    mesh = tuple(StoppingTime(space, i) for i in idx)
    table = rng.integers(-4, 5, (len(mesh), space.grid.n_times, space.labels.max() + 1)) / 2.0
    atoms = np.arange(n_atoms)
    weights = np.column_stack([
        table[j, np.minimum(t.index, space.grid.n_steps),
              space.labels[np.minimum(t.index, space.grid.n_steps), atoms]]
        for j, t in enumerate(mesh[:-1])
    ])
    H = SimpleIntegrand(space, mesh, weights)
    return H.truncate(random_stop(rng, S)) if rng.random() < 0.5 else H


def random_case(rng):
    """(H, S) with S whole-numbered and sampled on a random coarser level."""
    space = random_space(rng)
    full = AdaptedProcess(space, cell_values(rng, space.labels))
    S = restrict_to_level(full, int(rng.integers(0, space.grid.level + 1)))
    return random_integrand(rng, S), S


def brute_integral(H, S):
    """Per atom and sample time t: sum_j f_j (S_{tau_j ^ t} - S_{tau_{j-1} ^ t})."""
    n_steps = S.space.grid.n_steps
    col = {int(g): c for c, g in enumerate(S.time_index)}
    out = np.zeros(S.values.shape)
    for a in range(S.space.n_atoms):
        stops = [min(int(tau.index[a]), n_steps) for tau in H.mesh]
        for c, t in enumerate(S.time_index):
            total = 0.0
            for j in range(1, len(stops)):
                hi, lo = col[min(stops[j], t)], col[min(stops[j - 1], t)]
                total += H.weights[a, j - 1] * (S.values[a, hi] - S.values[a, lo])
            out[a, c] = total
    return out


@pytest.mark.parametrize("seed", SEEDS)
def test_integral_process_matches_brute_force(seed):
    H, S = random_case(np.random.default_rng(seed))
    proc = integral_process(H, S)
    assert np.array_equal(proc.time_index, S.time_index)
    assert np.array_equal(proc.values, brute_integral(H, S))


def old_integral_values(H, S):
    """integral_process's values as its kernel built them before it
    accumulated in place: a product and a cumsum of the padded gather,
    concatenated after a zero column."""
    eff = H._eff
    rows, span = eff.shape[0], S.space.grid.n_times + 1
    bins = eff + 1 + (np.arange(rows, dtype=np.int64) * span)[:, None]
    below = np.cumsum(np.bincount(bins.ravel(), minlength=rows * span).reshape(rows, span), axis=1)
    padded = np.pad(H.weights, ((0, 0), (1, 1)))
    hold = np.take_along_axis(padded, below[:, S.time_index[1:]], axis=1)
    return np.concatenate(
        [np.zeros((S.space.n_atoms, 1)), np.cumsum(hold * np.diff(S.values, axis=1), axis=1)], axis=1
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_integral_process_keeps_the_bits_of_its_old_kernel(seed):
    """With values and weights that round in every sum, the in-place
    kernel gives the old expression's bits, and the drawdown is the old
    np.maximum(-v, 0.0).max(), sign of zero included."""
    H, S = random_case(np.random.default_rng(seed))
    S = AdaptedProcess(S.space, S.values / 3.0 + 0.1, S.level)
    H = H.scale(0.7)
    proc = integral_process(H, S)
    assert proc.values.base is None and not proc.values.flags.writeable
    assert np.array_equal(proc.values.view(np.uint64), old_integral_values(H, S).view(np.uint64))
    terminal, drawdown = terminal_and_drawdown(H, S)
    assert np.array_equal(terminal.view(np.uint64), proc.values[:, -1].view(np.uint64))
    old = np.array(float(np.maximum(-proc.values, 0.0).max()))
    assert np.array(drawdown).view(np.uint64) == old.view(np.uint64)


@pytest.mark.parametrize("position", [1.0, 0.0, -0.0])
def test_a_never_losing_strategy_has_drawdown_plus_zero(position):
    """On a rising line no position loses; the drawdown is +0.0, as
    np.maximum(-v, 0.0).max() gives, never -0.0."""
    S = generate(GeneratorSpec(kind="deterministic_drift", level=3)).process
    H = constant_integrand(S.space, position)
    _, drawdown = terminal_and_drawdown(H, S)
    assert drawdown == 0.0 and not np.signbit(drawdown)
    assert not np.signbit(np.maximum(-integral_process(H, S).values, 0.0).max())


def random_grid_case(rng):
    """(H, S) with H on a deterministic grid mesh that S samples; repeated
    grid indices leave empty intervals."""
    space = random_space(rng)
    full = AdaptedProcess(space, cell_values(rng, space.labels))
    S = restrict_to_level(full, int(rng.integers(0, space.grid.level + 1)))
    inner = S.time_index[1:-1]
    picks = np.sort(rng.choice(inner, int(rng.integers(0, 2 * inner.size + 1))) if inner.size else inner)
    idx = np.concatenate([[0], picks, [space.grid.n_steps]])
    weights = np.hstack([cell_values(rng, space.labels[j]) for j in idx[:-1]]) / 2.0
    return SimpleIntegrand.from_grid_mesh(space, idx, weights), S


def materialized(H):
    """H rebuilt on the same mesh with one owned, per-atom array per entry."""
    return SimpleIntegrand(H.space, tuple(StoppingTime(H.space, np.array(t.index)) for t in H.mesh), H.weights)


def fresh_truncation(H, tau):
    """H 1_[0, tau] built and checked from scratch by the constructor."""
    space = H.space
    last = StoppingTime(space, np.full(space.n_atoms, space.grid.n_steps))
    return SimpleIntegrand(
        space,
        tuple(t.min_with(tau) for t in H.mesh) + (last,),
        np.hstack([H.weights, np.zeros((space.n_atoms, 1))]),
    )


def effective_mesh(H):
    """(n_atoms, N + 1) effective mesh times min(tau_j, 1), one column per entry."""
    return np.column_stack([np.minimum(t.index, H.space.grid.n_steps) for t in H.mesh])


def assert_same_integrand(fast, ref, S):
    """Same mesh, _eff, weight bits and running integral (bit for bit, and
    against the per-atom brute force)."""
    assert len(fast.mesh) == len(ref.mesh)
    assert all(np.array_equal(f.index, r.index) for f, r in zip(fast.mesh, ref.mesh))
    assert fast._eff.shape == ref._eff.shape and np.array_equal(fast._eff, ref._eff)
    assert np.array_equal(fast.weights.view(np.uint64), ref.weights.view(np.uint64))
    got = integral_process(fast, S).values
    assert np.array_equal(got.view(np.uint64), integral_process(ref, S).values.view(np.uint64))
    assert np.array_equal(got, brute_integral(fast, S))


@pytest.mark.parametrize("seed", SEEDS)
def test_grid_mesh_matches_its_materialized_mesh(seed):
    """A grid mesh is one broadcast row; the same mesh passed as per-atom
    stopping times must give the same integrand under every operation."""
    rng = np.random.default_rng(seed)
    H, S = random_grid_case(rng)
    space = H.space
    ref = materialized(H)
    assert all(t.index.strides == (0,) and not t.index.flags.writeable for t in H.mesh)
    assert H._eff.shape == (1, len(H.mesh))
    assert_same_integrand(H, ref, S)
    factor = float(rng.choice([-2.5, -1.0, -0.125, 0.0, 0.75, 3.0]))
    assert_same_integrand(H.scale(factor), ref.scale(factor), S)
    taus = (
        StoppingTime(space, np.full(space.n_atoms, rng.choice(S.time_index))),
        StoppingTime(space, np.full(space.n_atoms, space.grid.n_times)),
        random_stop(rng, S),
    )
    for tau in taus:
        fast = H.truncate(tau)
        assert_same_integrand(fast, ref.truncate(tau), S)
        assert_same_integrand(fast, fresh_truncation(ref, tau), S)
        assert (fast._eff.shape[0] == 1) == (np.unique(np.minimum(tau.index, space.grid.n_steps)).size == 1)


@pytest.mark.parametrize("seed", SEEDS)
def test_eff_has_one_row_exactly_when_the_mesh_is_deterministic(seed):
    rng = np.random.default_rng(seed)
    H, S = random_case(rng)
    G, _ = random_grid_case(rng)
    space = H.space
    cases = [
        H,
        H.scale(-0.5),
        H.truncate(StoppingTime(space, np.zeros(space.n_atoms, dtype=np.int64))),
        H.truncate(random_stop(rng, S)),
        G,
        G.truncate(StoppingTime(G.space, np.full(G.space.n_atoms, G.space.grid.n_times))),
        G.truncate(StoppingTime(G.space, np.zeros(G.space.n_atoms, dtype=np.int64))),
    ]
    for K in cases:
        full = effective_mesh(K)
        deterministic = bool((full == full[0]).all())
        assert K._eff.shape == ((1 if deterministic else K.space.n_atoms), len(K.mesh))
        assert np.array_equal(np.broadcast_to(K._eff, full.shape), full)
        assert not K._eff.flags.writeable


@pytest.mark.parametrize("seed", SEEDS)
def test_unsampled_mesh_time_rejected(seed):
    rng = np.random.default_rng(seed)
    space = random_space(rng)
    S = restrict_to_level(AdaptedProcess(space, cell_values(rng, space.labels)), 0)
    odd = int(rng.integers(0, space.grid.n_steps // 2)) * 2 + 1  # never on the level-0 grid
    H = SimpleIntegrand.from_grid_mesh(space, [0, odd, space.grid.n_steps], np.ones((space.n_atoms, 2)))
    with pytest.raises(StructuralError, match="not all sampled"):
        integral_process(H, S)


@pytest.mark.parametrize("seed", SEEDS)
def test_scale_matches_a_fresh_build(seed):
    rng = np.random.default_rng(seed)
    H, S = random_case(rng)
    factor = float(rng.choice([-2.5, -1.0, -0.125, 0.0, 0.75, 3.0]))
    fast = H.scale(factor)
    # comparing weight bits also holds empty intervals at +0, never -0,
    # whatever the sign of the factor
    assert_same_integrand(fast, SimpleIntegrand(H.space, H.mesh, H.weights * factor), S)
    assert not fast.weights.flags.writeable


@pytest.mark.parametrize("seed", SEEDS)
def test_truncate_matches_a_fresh_build(seed):
    rng = np.random.default_rng(seed)
    H, S = random_case(rng)
    tau = random_stop(rng, S)
    fast = H.truncate(tau)
    assert_same_integrand(fast, fresh_truncation(H, tau), S)
    assert not fast.weights.flags.writeable and not fast._eff.flags.writeable


def test_truncate_rejects_non_stopping_time():
    # tau = 1/2 exactly when the second innovation is +1: not observable yet
    space = binary_tree_space(1)
    tau = StoppingTime(space, np.where(tree_innovations(1)[:, 1] > 0, 1, space.grid.n_times))
    with pytest.raises(PreconditionError, match="not a stopping time"):
        constant_integrand(space, 1.0).truncate(tau)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("factor", [np.inf, -np.inf, np.nan])
def test_scale_rejects_non_finite_factor(factor):
    H, _ = random_case(np.random.default_rng(0))
    with pytest.raises(InvariantViolation, match="finite"):
        H.scale(factor)


@pytest.mark.parametrize(
    "fields, levels",
    [
        (dict(kind="rl_fractional", level=3, hurst=0.75), None),  # drift side
        (dict(kind="rl_fractional", level=3, hurst=0.25), None),  # quadratic side
        (dict(kind="rl_fractional", level=5, hurst=0.25, mode="ensemble", paths=256), (3, 4, 5)),
    ],
)
def test_evidence_diagnostics_match_evaluate(fields, levels):
    """The verdict reads li/vr/fl off one integral per strategy; the slow
    path integrates once per diagnostic and must give the same floats."""
    source = generate(GeneratorSpec(seed=1, **fields))
    verdict = detect(source, DetectConfig(levels=levels))
    assert verdict.kind == "free_lunch"
    S = source.process
    seq = verdict.strategies
    slow = evaluate(StrategySequence(seq.elements), S, verdict.alpha_star)
    assert (seq.li, seq.vr, seq.fl) == (slow.li, slow.vr, slow.fl)
