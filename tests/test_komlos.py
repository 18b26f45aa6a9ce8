"""Tests for certified convex-combination extraction from vector sequences."""

import weakref

import numpy as np
import pytest

from semimart.errors import ConvergenceError, ParameterError
from semimart.komlos import (
    ConvexWeights,
    extract_convex,
    extract_convex_multi,
    gram_matrix,
    min_norm_point,
)

TOL = 1e-8
WTOL = 1e-12


def assert_valid_weights(cw):
    """Simplex and tail-support invariants for every emitted step."""
    for s, blk in enumerate(cw.blocks):
        w = blk.weights
        assert np.all(w >= -WTOL)
        assert np.sum(w) == pytest.approx(1.0, abs=WTOL)
        assert blk.start >= s


class TestMinNormPoint:
    """Smallest-norm point of a convex hull, from its Gram matrix."""

    def test_single_point(self):
        v = np.array([1.0, 2.0])
        G = gram_matrix(v[None, :])
        assert min_norm_point(G) == pytest.approx([1.0])

    def test_opposite_points_balance(self):
        vecs = np.array([[1.0, 0.0], [-1.0, 0.0]])
        w = min_norm_point(gram_matrix(vecs))
        assert w == pytest.approx([0.5, 0.5], abs=1e-10)

    def test_interior_optimum(self):
        vecs = np.array([[2.0, 1.0], [-1.0, 1.0]])
        w = min_norm_point(gram_matrix(vecs))
        point = w @ vecs
        # the optimum projects out the spanned direction entirely
        assert point == pytest.approx([0.0, 1.0], abs=1e-10)

    def test_vertex_optimum(self):
        vecs = np.array([[1.0, 0.0], [3.0, 0.0]])
        w = min_norm_point(gram_matrix(vecs))
        assert w @ vecs == pytest.approx([1.0, 0.0], abs=1e-10)


class TestExtractConvex:
    """Certified extraction on single sequences."""

    def test_constant_sequence_returns_the_constant(self):
        v = np.array([0.3, -1.2, 0.5])
        vecs = np.tile(v, (12, 1))
        cw, limit = extract_convex(vecs, tol=TOL)
        assert limit == pytest.approx(v, abs=TOL)
        assert_valid_weights(cw)
        assert max(cw.errors) <= TOL

    def test_alternating_sequence_averages_to_zero(self):
        v = np.array([1.0, -0.5, 2.0])
        vecs = np.array([v if n % 2 == 0 else -v for n in range(30)])
        cw, limit = extract_convex(vecs, tol=TOL)
        assert np.max(np.abs(limit)) <= TOL
        assert_valid_weights(cw)
        # final window holds one +v and one -v: the balanced average wins
        last = cw.blocks[-1]
        assert last.weights == pytest.approx([0.5, 0.5], abs=1e-10)
        assert last.weights.size == 2

    def test_vanishing_perturbation_recovers_the_base_point(self):
        v = np.array([1.0, 0.0, 0.0, 0.0])
        w = np.array([0.0, 2.0, 0.0, 0.0])
        start = 10 ** 9
        vecs = np.array([v + w / n for n in range(start, start + 24)])
        cw, limit = extract_convex(vecs, tol=TOL)
        assert np.max(np.abs(limit - v)) <= TOL
        assert_valid_weights(cw)

    def test_perturbation_error_shrinks_with_the_tail(self):
        v = np.array([1.0, 0.0])
        w = np.array([0.0, 2.0])
        vecs = np.array([v + w / n for n in range(1, 41)])
        cw, limit = extract_convex(vecs, tol=1.0)
        assert_valid_weights(cw)
        # the tail elements sit within 2/25 of v, and so does the limit
        assert np.max(np.abs(limit - v)) <= 0.08 + 1e-12

    def test_errors_are_non_increasing(self):
        v = np.array([1.0, 0.0, 0.0, 0.0, 0.0])
        w = np.array([0.0, 3.0, 0.0, 0.0, 0.0])
        vecs = np.array([v + w * 2.0 ** -n for n in range(40)])
        cw, _ = extract_convex(vecs, tol=1.0)
        errs = np.array(cw.errors)
        assert np.all(np.diff(errs) <= 1e-12)

    def test_probability_weighted_geometry(self):
        prob = np.array([0.7, 0.2, 0.1])
        vecs = np.array([[1.0, -1.0, 0.0], [-1.0, 1.0, 0.0]] * 6)
        cw, limit = extract_convex(vecs, tol=TOL, prob=prob)
        assert np.max(np.abs(limit)) <= TOL
        assert_valid_weights(cw)

    def test_prefix_permutation_keeps_the_limit(self):
        rng = np.random.default_rng(19)
        v = np.array([0.4, -0.8, 1.1])
        vecs = np.array([v * (1.0 + 1.0 / (n + 20)) for n in range(30)])
        perm = np.arange(30)
        perm[:8] = rng.permutation(8)
        _, limit_a = extract_convex(vecs, tol=1.0)
        _, limit_b = extract_convex(vecs[perm], tol=1.0)
        assert limit_a == pytest.approx(limit_b, abs=1e-9)

    def test_reapplication_concentrates(self):
        # extracting from already-extracted points converges immediately
        v = np.array([1.0, -0.5])
        vecs = np.array([v if n % 2 == 0 else -v for n in range(24)])
        cw, _ = extract_convex(vecs, tol=TOL)
        emitted = np.array(
            [cw.combination(s, vecs) for s in cw.converged_steps]
        )
        reps = np.vstack([emitted] * 4)
        cw2, limit2 = extract_convex(reps, tol=TOL)
        assert np.max(np.abs(limit2)) <= TOL
        assert max(cw2.errors) <= TOL

    def test_too_few_elements_rejected(self):
        with pytest.raises(ParameterError):
            extract_convex(np.ones((2, 3)), tol=TOL)

    def test_window_must_hold_two_elements(self):
        with pytest.raises(ParameterError):
            extract_convex(np.ones((8, 2)), tol=TOL, window=1)

    def test_drifting_tail_raises_with_distances(self):
        far = np.tile([4.0, 0.0], (20, 1))
        near = np.tile([0.0, 0.1], (20, 1))
        vecs = np.vstack([far, near])
        with pytest.raises(ConvergenceError) as info:
            extract_convex(vecs, tol=TOL, window=16)
        assert getattr(info.value, "distances", None) is not None


class TestExtractConvexMulti:
    """One weight schedule shared across several sequences."""

    def test_single_sequence_reduces_to_plain_extraction(self):
        v = np.array([0.5, 1.5, -2.0])
        vecs = np.array([v if n % 2 == 0 else -v for n in range(20)])
        cw_multi, limits = extract_convex_multi([vecs], tol=TOL)
        cw_single, limit = extract_convex(vecs, tol=TOL)
        assert limits[0] == pytest.approx(limit, abs=1e-12)
        assert cw_multi.blocks[-1].weights == pytest.approx(
            cw_single.blocks[-1].weights, abs=1e-12
        )

    def test_constant_pair_returns_both_constants(self):
        a = np.tile([1.0, 2.0], (12, 1))
        b = np.tile([-3.0, 0.5], (12, 1))
        cw, limits = extract_convex_multi([a, b], tol=TOL)
        assert limits[0] == pytest.approx([1.0, 2.0], abs=TOL)
        assert limits[1] == pytest.approx([-3.0, 0.5], abs=TOL)
        assert_valid_weights(cw)

    def test_two_alternating_sequences_share_zero_limit(self):
        u = np.array([1.0, 0.0])
        v = np.array([0.0, -2.0])
        seq_a = np.array([u if n % 2 == 0 else -u for n in range(24)])
        seq_b = np.array([v if n % 2 == 0 else -v for n in range(24)])
        cw, limits = extract_convex_multi([seq_a, seq_b], tol=TOL)
        assert np.max(np.abs(limits[0])) <= TOL
        assert np.max(np.abs(limits[1])) <= TOL
        assert_valid_weights(cw)

    def test_weights_reapply_to_each_sequence(self):
        seq_a = np.array([[1.0, -1.0] if n % 2 else [-1.0, 1.0] for n in range(20)])
        wiggle = np.array([[0.01, -0.02] if n % 2 else [-0.01, 0.02] for n in range(20)])
        seq_b = 0.3 + wiggle
        cw, limits = extract_convex_multi([seq_a, seq_b], tol=1.0)
        last = cw.n_steps - 1
        assert cw.combination(last, seq_a) == pytest.approx(limits[0], abs=1e-12)
        assert cw.combination(last, seq_b) == pytest.approx(limits[1], abs=1e-12)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ParameterError):
            extract_convex_multi([np.ones((10, 2)), np.ones((9, 2))], tol=TOL)

    def test_built_sequences_match_arrays_one_at_a_time(self):
        """A sequence given as a function is built once for its Gram and once
        for its limit, never beside another built one, and gives the
        weights and limits of the arrays bit for bit."""
        rng = np.random.default_rng(3)
        seqs = [rng.standard_normal((12, 40)) * 0.5 ** np.arange(12)[:, None] for _ in range(4)]
        prob = np.full(40, 1 / 40)
        live, calls = [], []

        def built_by(i):
            def build():
                calls.append(i)
                assert all(ref() is None for ref in live), "two built sequences alive at once"
                arr = seqs[i].copy()
                live.append(weakref.ref(arr))
                return arr
            return build

        cw_a, limits_a = extract_convex_multi(seqs, tol=1e-3, prob=prob)
        cw_b, limits_b = extract_convex_multi([built_by(i) for i in range(4)], tol=1e-3, prob=prob)
        assert calls == [0, 1, 2, 3] * 2
        assert [b.weights.tobytes() for b in cw_a.blocks] == [b.weights.tobytes() for b in cw_b.blocks]
        assert [x.tobytes() for x in limits_a] == [x.tobytes() for x in limits_b]


class TestConvexWeights:
    """Container invariants of the emitted schedule."""

    def test_combination_needs_valid_step(self):
        vecs = np.tile([1.0, 1.0], (10, 1))
        cw, _ = extract_convex(vecs, tol=TOL)
        with pytest.raises(ParameterError):
            cw.combination(cw.n_steps, vecs)

    def test_converged_steps_cover_a_tail(self):
        vecs = np.tile([2.0, -1.0], (14, 1))
        cw, _ = extract_convex(vecs, tol=TOL)
        steps = cw.converged_steps
        assert len(steps) >= 2
        assert steps.stop == cw.n_steps
