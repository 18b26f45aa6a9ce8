"""Tests for the reference process generators and their drift oracles."""

import tracemalloc

import numpy as np
import pytest

from semimart import space as space_module
from semimart.doob import doob_decompose, restrict_to_level
from semimart.errors import InvariantViolation, ParameterError, ResourceLimitError
from semimart.generators import (
    PATH_BLOCK,
    GeneratorSpec,
    Source,
    bound_factor_for,
    generate,
    oracle_increments,
    rl_cum_kernel,
    rl_kernel,
    rl_normalizer,
)
from semimart.generators import _empirical_labels, _seed_states
from semimart.space import tree_innovations
from helpers import sampled_innovations

TOL = 1e-12


class TestSpecValidation:
    """GeneratorSpec parameter policing."""

    def test_unknown_kind_rejected(self):
        with pytest.raises(ParameterError):
            GeneratorSpec(kind="brownian", level=2)

    def test_level_must_be_positive(self):
        with pytest.raises(ParameterError):
            GeneratorSpec(kind="rademacher_bm", level=0)

    def test_scale_must_be_positive(self):
        with pytest.raises(ParameterError):
            GeneratorSpec(kind="rademacher_bm", level=2, scale=0.0)

    def test_ensemble_paths_must_be_power_of_two(self):
        with pytest.raises(ParameterError):
            GeneratorSpec(kind="rademacher_bm", level=3, mode="ensemble", paths=100)

    def test_single_path_drift_has_no_ensemble_mode(self):
        with pytest.raises(ParameterError):
            GeneratorSpec(kind="deterministic_drift", level=3, mode="ensemble")

    # the cap holds in every mode: only specs are built, never the sources
    @pytest.mark.parametrize("spec", [
        dict(kind="rademacher_bm", mode="ensemble", paths=16),
        dict(kind="rademacher_bm", mode="exact_tree"),
        dict(kind="deterministic_drift", mode="exact_tree"),
    ], ids=["ensemble", "exact-tree", "deterministic-drift"])
    def test_ensemble_level_cap(self, spec):
        with pytest.raises(ResourceLimitError, match="^levels up to 10 are supported, got 11$"):
            GeneratorSpec(level=11, **spec)

    @pytest.mark.parametrize("level, paths", [(10, 1 << 15), (1, 1 << 24), (4, 1 << 30)])
    def test_ensemble_cells_cap(self, level, paths):
        # only specs are built: the refused sizes would not fit in memory
        with pytest.raises(ResourceLimitError, match="^paths"):
            GeneratorSpec(kind="rademacher_bm", level=level, mode="ensemble", paths=paths)

    @pytest.mark.parametrize("level, paths", [(10, 1 << 14), (1, 1 << 23)])
    def test_ensemble_cells_cap_admits_the_largest_supported(self, level, paths):
        assert GeneratorSpec(kind="rademacher_bm", level=level, mode="ensemble",
                             paths=paths).paths == paths

    @pytest.mark.parametrize("seed", [-1, -(2**70), True, 1.0, "3", None])
    def test_seed_must_be_a_non_negative_int(self, seed):
        with pytest.raises(ParameterError, match="^seed must be a non-negative integer"):
            GeneratorSpec(kind="rl_fractional", level=3, mode="ensemble", paths=4, seed=seed)

    def test_hurst_range(self):
        with pytest.raises(ParameterError):
            GeneratorSpec(kind="rl_fractional", level=2, hurst=1.0)

    def test_jump_size_at_least_one(self):
        with pytest.raises(ParameterError):
            GeneratorSpec(kind="jump", level=2, jump_size=0.5)

    @pytest.mark.parametrize(
        "kind, field, value",
        [("drifted", "mu", float("nan")), ("drifted", "mu", float("inf")),
         ("jump", "jump_size", float("inf")), ("jump", "jump_size", float("nan")),
         ("drifted", "scale", float("inf")), ("rademacher_bm", "scale", float("inf"))],
    )
    def test_values_must_be_finite(self, kind, field, value):
        with pytest.raises(ParameterError, match=f"^{field} must be finite"):
            GeneratorSpec(kind=kind, level=2, **{field: value})


class TestKernel:
    """Moving-average kernel identities."""

    def test_first_weight_is_one(self):
        for H in (0.25, 0.5, 0.75):
            assert rl_kernel(H, np.array([1.0]))[0] == pytest.approx(1.0)

    def test_half_exponent_degenerates(self):
        k = rl_kernel(0.5, np.arange(1, 6))
        assert k == pytest.approx([1.0, 0.0, 0.0, 0.0, 0.0], abs=TOL)

    def test_cumulative_sums_telescope(self):
        H = 0.75
        ms = np.arange(1, 9)
        partial = np.cumsum(rl_kernel(H, ms))
        assert partial == pytest.approx(rl_cum_kernel(H, ms), abs=TOL)

    def test_cumulative_kernel_starts_at_zero(self):
        assert rl_cum_kernel(0.75, np.array([0.0]))[0] == 0.0
        assert rl_cum_kernel(0.5, np.array([0.0]))[0] == 0.0

    def test_normalizer_matches_unit_variance(self):
        H, L = 0.75, 16
        q = rl_normalizer(H, L)
        total = (np.arange(1, L + 1) ** (2 * H - 1.0)).sum()
        assert q ** 2 * total == pytest.approx(1.0, abs=TOL)


class TestExactTrees:
    """Closed-form values on full binary trees."""

    def test_symmetric_walk_level_one(self):
        src = generate(GeneratorSpec(kind="rademacher_bm", level=1))
        space, S = src.space, src.process
        assert space.n_atoms == 4
        assert space.probs == pytest.approx([0.25, 0.25, 0.25, 0.25])
        expected = np.array(
            [[0.0, 0.5, 1.0], [0.0, 0.5, 0.0], [0.0, -0.5, 0.0], [0.0, -0.5, -1.0]]
        )
        assert np.max(np.abs(S.values - expected)) <= TOL

    @pytest.mark.parametrize("fields", [
        dict(kind="rademacher_bm", level=2),
        dict(kind="drifted", level=2),
        dict(kind="jump", level=2),
        dict(kind="rl_fractional", level=3, mode="ensemble", paths=16),
    ], ids=lambda f: f"{f['kind']}-{f.get('mode', 'exact_tree')}")
    def test_values_are_handed_over_read_only_and_shared(self, fields):
        """An innovation kind's values are a fresh running sum, handed over
        read-only, so the source's process keeps that array uncopied."""
        src = generate(GeneratorSpec(**fields))
        assert not src.values.flags.writeable
        assert src.process.values is src.values

    def test_deterministic_drift_scaling(self):
        S = generate(GeneratorSpec(kind="deterministic_drift", level=1, scale=0.5)).process
        assert S.values == pytest.approx(np.array([[0.0, 0.25, 0.5]]), abs=TOL)

    def test_half_hurst_reduces_to_symmetric_walk(self):
        for level in (1, 2, 3):
            Sr = generate(GeneratorSpec(kind="rademacher_bm", level=level, seed=4)).process
            Sh = generate(
                GeneratorSpec(kind="rl_fractional", level=level, seed=4, hurst=0.5)
            ).process
            assert np.array_equal(Sr.values, Sh.values)

    def test_jump_adds_a_unit_plus_move_at_half(self):
        spec = GeneratorSpec(kind="jump", level=2, jump_size=1.5)
        src = generate(spec)
        space, S = src.space, src.process
        dS = S.increments()
        # the step ending at 1/2 carries the jump on top of the 2^-n move
        assert np.max(np.abs(np.abs(dS[:, 1]) - (1.5 + 0.25))) <= TOL
        assert np.max(np.abs(np.abs(dS[:, [0, 2, 3]]) - 0.25)) <= TOL

    def test_exact_emissions_stay_in_unit_band(self):
        for kind in ("rademacher_bm", "drifted", "rl_fractional"):
            for level in (1, 2, 3):
                S = generate(GeneratorSpec(kind=kind, level=level, seed=1)).process
                assert S.sup_norm() <= 1.0 + 1e-12

    def test_jump_kind_exempt_from_unit_band(self):
        S = generate(GeneratorSpec(kind="jump", level=2)).process
        assert S.sup_norm() > 1.0

    def test_generate_is_deterministic(self):
        spec = GeneratorSpec(kind="rl_fractional", level=3, seed=12)
        S1 = generate(spec).process
        S2 = generate(spec).process
        assert np.array_equal(S1.values, S2.values)


class TestDriftOracles:
    """Closed-form predictable increments versus partition averaging."""

    def test_symmetric_walk_has_zero_compensator(self):
        spec = GeneratorSpec(kind="rademacher_bm", level=3)
        src = generate(spec)
        S = src.process
        for n in (1, 2, 3):
            assert np.max(np.abs(oracle_increments(spec, src.xi, n))) == 0.0
            D = doob_decompose(S, n)
            assert np.max(np.abs(D.A.values)) <= TOL

    def test_drifted_compensator_is_flat(self):
        mu, level = 0.5, 3
        scale = (1.0 - mu) * 2.0 ** (-level / 2)
        spec = GeneratorSpec(kind="drifted", level=level, mu=mu, scale=scale)
        assert bound_factor_for(spec) == pytest.approx(1.0)
        src = generate(spec)
        for n in (1, 2, 3):
            inc = oracle_increments(spec, src.xi, n)
            assert inc == pytest.approx(np.full_like(inc, mu * 2.0 ** -n), abs=TOL)

    def test_oracle_matches_partition_averaging_on_all_kinds(self):
        for kind in ("rademacher_bm", "drifted", "rl_fractional", "jump"):
            spec = GeneratorSpec(kind=kind, level=3, seed=2)
            src = generate(spec)
            S = src.process
            for n in (1, 2, 3):
                D = doob_decompose(S, n)
                dA = D.A.increments()
                inc = oracle_increments(spec, src.xi, n)
                assert np.max(np.abs(dA - inc)) <= TOL

    def test_oracle_level_range_checked(self):
        spec = GeneratorSpec(kind="drifted", level=2)
        with pytest.raises(ParameterError):
            oracle_increments(spec, generate(spec).xi, 3)

    def test_rough_path_variation_profile(self):
        # drift variation grows and quadratic variation shrinks with depth
        spec = GeneratorSpec(kind="rl_fractional", level=3, hurst=0.75)
        S = generate(spec).process
        tv, qv = [], []
        for n in (1, 2, 3):
            D = doob_decompose(S, n)
            tv.append(float(S.space.expectation(D.tv)))
            qv.append(float(S.space.expectation(D.qv)))
        assert tv[0] < tv[1] < tv[2]
        assert qv[0] > qv[1] > qv[2]


class TestEnsembles:
    """Sampled-path mode and its empirical filtration."""

    def test_shapes_and_uniform_probs(self):
        spec = GeneratorSpec(kind="rl_fractional", level=4, mode="ensemble", paths=32, seed=9)
        E = generate(spec)
        assert isinstance(E, Source)
        assert E.xi.shape == (32, 16)
        assert E.values.shape == (32, 17)
        assert E.space.probs == pytest.approx(np.full(32, 1.0 / 32))

    def test_sampling_is_deterministic_in_the_seed(self):
        spec = GeneratorSpec(kind="drifted", level=3, mode="ensemble", paths=16, seed=21)
        E1, E2 = generate(spec), generate(spec)
        assert np.array_equal(E1.xi, E2.xi)
        assert np.array_equal(E1.values, E2.values)
        E3 = generate(
            GeneratorSpec(kind="drifted", level=3, mode="ensemble", paths=16, seed=22)
        )
        assert not np.array_equal(E1.xi, E3.xi)

    @pytest.mark.parametrize("kind, level, paths, seed", [
        ("rl_fractional", 1, 2, 0),
        ("rademacher_bm", 2, 64, 7),
        ("drifted", 5, 128, 21),
        ("jump", 6, 32, 3),
        ("rl_fractional", 8, 256, 1),
        ("rl_fractional", 10, 4, 2**40 + 5),
        ("drifted", 3, 16, 2**128 + 1),  # five seed words
        ("rademacher_bm", 1, 2 * PATH_BLOCK, 11),  # two path blocks
    ])
    def test_innovations_match_the_per_path_generators(self, kind, level, paths, seed):
        """The raw-stream sampler draws the bits that one Generator per path
        draws with integers(0, 2), byte for byte."""
        spec = GeneratorSpec(kind=kind, level=level, mode="ensemble", paths=paths, seed=seed)
        xi = generate(spec).xi
        assert xi.dtype == np.int8
        assert xi.tobytes() == sampled_innovations(seed, paths, 1 << level).tobytes()

    def test_block_edges_match_the_spawned_streams(self):
        """At L1 with 2^17 paths, the first and last rows and the rows on
        each side of every block edge are those of path r's own stream."""
        seed, paths = 2**64 + 3, 1 << 17
        xi = generate(GeneratorSpec(kind="rademacher_bm", level=1, mode="ensemble",
                                    paths=paths, seed=seed)).xi
        rows = {0, paths - 1}
        for edge in range(PATH_BLOCK, paths, PATH_BLOCK):
            rows |= {edge - 1, edge}
        assert len(rows) == 2 * (paths // PATH_BLOCK)
        for r in sorted(rows):
            stream = np.random.SeedSequence(seed, spawn_key=(r,))
            bits = np.random.default_rng(stream).integers(0, 2, size=2)
            assert xi[r].tolist() == (1 - 2 * bits).tolist(), r

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 7, 2**128 + 1, 2**200 + 3])
    def test_seed_hashing_matches_numpy(self, seed):
        """The vectorised SeedSequence hash gives numpy's state words, so a
        numpy that changed its algorithm fails here first."""
        rows = [0, 1, 2, 12345, PATH_BLOCK, 2**23 - 1]
        got = _seed_states(seed, np.array(rows))
        for i, r in enumerate(rows):
            want = np.random.SeedSequence(seed, spawn_key=(r,)).generate_state(4, np.uint64)
            assert [int(w[i]) for w in got] == want.tolist(), r

    def test_generate_holds_no_per_path_objects(self):
        """Sampling L1 x 2^18 paths peaks at about 2.1 (atoms x times)
        float64 units traced; one seed object per path took about 15."""
        spec = GeneratorSpec(kind="rademacher_bm", level=1, mode="ensemble", paths=1 << 18, seed=3)
        unit = spec.paths * (spec.n_steps + 1) * 8
        tracemalloc.start()
        try:
            generate(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * unit

    def test_decomposer_uses_the_oracle(self):
        spec = GeneratorSpec(kind="drifted", level=3, mode="ensemble", paths=64, seed=5)
        E = generate(spec)
        D = doob_decompose(E.process, 2, E.drift_increments(2))
        assert D.analytic
        assert np.max(np.abs(D.A.increments() - oracle_increments(spec, E.xi, 2))) <= TOL
        Sn = restrict_to_level(E.process, 2)
        assert np.max(np.abs(D.M.values + D.A.values - Sn.values)) <= TOL

    def test_compensator_oracle_runs_at_native_level(self):
        spec = GeneratorSpec(kind="rl_fractional", level=3, mode="ensemble", paths=16, seed=3)
        E = generate(spec)
        D = doob_decompose(E.process, 3, E.drift_increments(3))
        assert D.level == 3
        assert np.max(np.abs(D.A.increments() - oracle_increments(spec, E.xi, 3))) <= TOL

    def test_rebuild_from_stored_arrays(self):
        spec = GeneratorSpec(kind="rl_fractional", level=3, mode="ensemble", paths=16, seed=8)
        E = generate(spec)
        R = Source(spec, E.probs, E.xi, E.values)
        assert np.array_equal(R.process.values, E.process.values)
        # the normalization divisor is a function of the spec alone
        D_R = doob_decompose(R.process, 2, R.drift_increments(2))
        D_E = doob_decompose(E.process, 2, E.drift_increments(2))
        assert np.array_equal(D_R.A.values, D_E.A.values)

    def test_tree_space_from_stored_innovations(self):
        spec = GeneratorSpec(kind="rademacher_bm", level=2, mode="ensemble", paths=8, seed=6)
        E = generate(spec)
        space = Source(spec, E.space.probs, E.xi, E.values).space
        assert space.n_atoms == 8
        assert np.array_equal(space.labels, E.space.labels)

    def test_bound_factor_formula(self):
        spec = GeneratorSpec(kind="rademacher_bm", level=4, scale=1.0)
        assert bound_factor_for(spec) == pytest.approx(2.0 ** 2)
        small = GeneratorSpec(kind="rademacher_bm", level=4, scale=2.0 ** -3)
        assert bound_factor_for(small) == 1.0


def full_labels(xi: np.ndarray) -> np.ndarray:
    """The empirical labels refined at every time, with no early stop."""
    paths, L = xi.shape
    labels = np.zeros((L + 1, paths), dtype=np.int32)
    for j in range(1, L + 1):
        pairs = labels[j - 1] * 2 + (xi[:, j - 1] > 0)
        labels[j] = np.unique(pairs, return_inverse=True)[1]
    return labels


class TestEmpiricalLabels:
    """Labels stop refining once every path is its own cell."""

    @pytest.mark.parametrize("level, paths, seed", [
        (8, 4096, 1),  # the ensemble-L8 benchmark's source
        (3, 2, 5),
        (10, 8, 2),
        (6, 1 << 10, 4),
    ])
    def test_the_early_stop_gives_the_full_labels(self, level, paths, seed):
        spec = GeneratorSpec(kind="rl_fractional", level=level, mode="ensemble", paths=paths,
                             hurst=0.75, seed=seed)
        xi = generate(spec).xi
        assert np.array_equal(_empirical_labels(xi), full_labels(xi))

    @pytest.mark.parametrize("level", [1, 2, 3, 4])
    def test_exact_trees_reach_singletons_only_at_the_end(self, level):
        xi = tree_innovations(level)
        labels = _empirical_labels(xi)
        assert np.array_equal(labels, full_labels(xi))
        assert labels[-2].max() + 1 < xi.shape[0] == labels[-1].max() + 1

    def test_the_refinement_check_reads_every_time(self, monkeypatch):
        seen = []

        def spy(labels, x, atol=0.0):
            seen.append(labels.shape)
            return cell_mismatch(labels, x, atol)

        cell_mismatch = space_module.cell_mismatch
        monkeypatch.setattr(space_module, "cell_mismatch", spy)
        spec = GeneratorSpec(kind="rl_fractional", level=8, mode="ensemble", paths=64, seed=1)
        generate(spec).space
        assert seen == [(spec.n_steps, spec.paths)]
