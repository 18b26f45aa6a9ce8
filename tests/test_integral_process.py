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
from semimart.errors import ParameterError, PreconditionError, StructuralError
from semimart.generators import EnsembleProcess, GeneratorSpec, generate
from semimart.integrands import SimpleIntegrand, StrategySequence, integral_process
from semimart.pipeline import DetectConfig, detect
from semimart.space import AdaptedProcess, StoppingTime, binary_tree_space, first_hitting_time
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
    H, _ = random_case(rng)
    factor = float(rng.choice([-2.5, -1.0, -0.125, 0.0, 0.75, 3.0]))
    fast = H.scale(factor)
    slow = SimpleIntegrand(H.space, H.mesh, H.weights * factor)
    assert fast.mesh == slow.mesh
    assert np.array_equal(fast._eff, slow._eff)
    assert np.array_equal(fast.weights, slow.weights)
    # empty intervals hold +0, never -0, whatever the sign of the factor
    assert np.array_equal(np.signbit(fast.weights), np.signbit(slow.weights))
    assert not fast.weights.flags.writeable


@pytest.mark.parametrize("seed", SEEDS)
def test_truncate_matches_a_fresh_build(seed):
    rng = np.random.default_rng(seed)
    H, S = random_case(rng)
    tau = random_stop(rng, S)
    space = S.space
    fast = H.truncate(tau)
    last = StoppingTime(space, np.full(space.n_atoms, space.grid.n_steps))
    slow = SimpleIntegrand(
        space,
        tuple(t.min_with(tau) for t in H.mesh) + (last,),
        np.hstack([H.weights, np.zeros((space.n_atoms, 1))]),
    )
    assert len(fast.mesh) == len(slow.mesh)
    assert all(np.array_equal(f.index, s.index) for f, s in zip(fast.mesh, slow.mesh))
    assert np.array_equal(fast._eff, slow._eff)
    assert np.array_equal(fast.weights, slow.weights)
    assert np.array_equal(np.signbit(fast.weights), np.signbit(slow.weights))
    assert not fast.weights.flags.writeable and not fast._eff.flags.writeable


def test_truncate_rejects_non_stopping_time():
    # tau = 1/2 exactly when the second innovation is +1: not observable yet
    space = binary_tree_space(1)
    tau = StoppingTime(space, np.where(space.innovations[:, 1] > 0, 1, space.grid.n_times))
    with pytest.raises(PreconditionError, match="not a stopping time"):
        SimpleIntegrand.constant(space, 1.0).truncate(tau)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("factor", [np.inf, -np.inf, np.nan])
def test_scale_rejects_non_finite_factor(factor):
    H, _ = random_case(np.random.default_rng(0))
    with pytest.raises(ParameterError, match="finite"):
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
    S = source.process if isinstance(source, EnsembleProcess) else source[1]
    seq = verdict.strategies
    slow = StrategySequence(seq.elements).evaluate(S, verdict.alpha_star)
    assert (seq.li, seq.vr, seq.fl, seq.fl_threshold) == (slow.li, slow.vr, slow.fl, slow.fl_threshold)
