"""Convex-combination extraction for norm-bounded sequences.

Given vectors f_0, f_1, ... in an inner-product space, each step s picks
convex weights over the window {f_s, ..., f_{s+W-1}} so that the weighted
combinations g_s converge in norm.  Every window aims at a common anchor,
the minimum-norm point of the hull of the whole prefix; when the prefix
fits inside the window the hulls are nested tails, the anchor distances
d_s are non-decreasing, and e_s = sqrt(d_last^2 - d_s^2) is a certified
non-increasing bound on ||g_s - g_last||.

Everything runs on Gram matrices, so several sequences can share one set
of weights by summing their Grams (the inner product of the stacked
vectors).
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, ParameterError

DEFAULT_WINDOW = 16
DEFAULT_TOL = 1e-8
_TINY = 1e-13


def _check_gram(G: np.ndarray) -> np.ndarray:
    G = np.asarray(G, dtype=float)
    if G.ndim != 2 or G.shape[0] != G.shape[1]:
        raise ParameterError("gram matrix must be square")
    if not np.isfinite(G).all():
        raise ParameterError("gram matrix has non-finite entries")
    if np.abs(G - G.T).max() > 1e-9 * (1.0 + np.abs(G).max()):
        raise ParameterError("gram matrix must be symmetric")
    return 0.5 * (G + G.T)


def min_norm_point(G: np.ndarray, tol: float = 1e-12, max_iter: int = 10000) -> np.ndarray:
    """Weights of the minimum-norm point of conv{f_0..f_{k-1}}, given the Gram.

    Active-set method: keep an affinely independent corral, solve for the
    affine minimizer over it, line-search toward it dropping vertices
    whose weight would go negative, and stop once no vertex improves.
    """
    G = _check_gram(G)
    k = G.shape[0]
    scale = max(1.0, float(np.abs(G).max()))
    active = [int(np.argmin(np.diag(G)))]
    w = np.array([1.0])
    for _ in range(max_iter):
        x_dot = w @ G[active, :]          # <x, f_j> for every j
        xx = float(w @ x_dot[active])     # ||x||^2
        j = int(np.argmin(x_dot))
        if x_dot[j] >= xx - tol * scale or j in active:
            break
        active.append(j)
        w = np.append(w, 0.0)
        while True:
            v = _affine_minimizer(G[np.ix_(active, active)])
            if (v > _TINY).all():
                w = v
                break
            # step from w toward v until the first coordinate hits zero
            d = w - v
            mask = d > _TINY
            theta = min(1.0, float((w[mask] / d[mask]).min())) if mask.any() else 1.0
            w = (1.0 - theta) * w + theta * v
            keep = w > _TINY
            if keep.all():
                w[np.argmin(w)] = 0.0
                keep = w > _TINY
            active = [a for a, kf in zip(active, keep) if kf]
            w = w[keep]
            w = w / w.sum()
    out = np.zeros(k)
    out[active] = w
    return out


def _affine_minimizer(Gs: np.ndarray) -> np.ndarray:
    """Sign-free weights summing to 1 that minimize the norm over the
    corral's affine hull; bordered KKT system, least-squares solved so
    duplicated vectors split weight instead of blowing up."""
    m = Gs.shape[0]
    kkt = np.zeros((m + 1, m + 1))
    kkt[:m, :m] = Gs
    kkt[:m, m] = 1.0
    kkt[m, :m] = 1.0
    rhs = np.zeros(m + 1)
    rhs[m] = 1.0
    sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
    return sol[:m]


@dataclass(frozen=True)
class WeightBlock:
    """Convex weights for one extraction step; `start` is the index of
    the first sequence element the weights touch."""

    start: int
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or len(w) == 0:
            raise ParameterError("weights must be a nonempty vector")
        if (w < -_TINY).any() or abs(w.sum() - 1.0) > 1e-9:
            raise ParameterError("weights must be convex")
        w = np.clip(w, 0.0, None)
        w = w / w.sum()
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)

    @property
    def indices(self) -> np.ndarray:
        return np.arange(self.start, self.start + len(self.weights))


@dataclass(frozen=True)
class ConvexWeights:
    """Extraction transcript: one weight block per step, the certified
    error bound per step (non-increasing), and the first step of the
    converged tail run.  Steps at or after `converged_from` satisfy
    ||g_s - limit|| <= tol; earlier blocks are kept for the transcript
    but carry no guarantee.
    """

    blocks: tuple
    errors: tuple
    converged_from: int
    tol: float
    log: tuple

    def __post_init__(self):
        for s, blk in enumerate(self.blocks):
            if blk.start < s:
                raise ParameterError(f"step {s} uses elements before position {s}")

    @property
    def n_steps(self) -> int:
        return len(self.blocks)

    @property
    def converged_steps(self) -> range:
        return range(self.converged_from, self.n_steps)

    def combination(self, step: int, vectors) -> np.ndarray:
        """Apply the weights of `step` to concrete vectors (rows)."""
        if not 0 <= step < len(self.blocks):
            raise ParameterError(
                f"step {step} outside the emitted range [0, {len(self.blocks)})"
            )
        blk = self.blocks[step]
        vecs = np.asarray(vectors, dtype=float)
        return np.tensordot(blk.weights, vecs[blk.indices], axes=1)


def gram_matrix(vectors, prob: np.ndarray | None = None) -> np.ndarray:
    """Gram of row vectors; `prob` weights coordinates (L2 over a finite
    probability space), omitted means the plain Euclidean product."""
    vecs = np.asarray(vectors, dtype=float)
    if vecs.ndim == 1:
        vecs = vecs[:, None]
    if prob is None:
        return vecs @ vecs.T
    p = np.asarray(prob, dtype=float)
    if p.shape != (vecs.shape[1],):
        raise ParameterError("probability weights must match the coordinate count")
    return (vecs * p) @ vecs.T


def extract_convex_gram(
    gram: np.ndarray,
    tol: float = DEFAULT_TOL,
    window: int = DEFAULT_WINDOW,
) -> ConvexWeights:
    """Core extraction, driven by the Gram matrix alone.

    Steps s = 0..k-2 use window {f_s, ..., f_{min(s+W,k)-1}} (width >= 2
    everywhere, nested tails once the prefix fits in the window).  The
    converged tail must span at least two steps, else ConvergenceError
    carrying the error sequence.
    """
    G = _check_gram(gram)
    k = G.shape[0]
    if k < 3:
        raise ParameterError(f"need a prefix of at least 3 elements, got {k}")
    if window < 2:
        raise ParameterError("window must be >= 2")
    if not tol > 0:
        raise ParameterError("tol must be > 0")
    log = []

    w_anchor = min_norm_point(G)
    Gw = G @ w_anchor
    anchor_sq = float(w_anchor @ Gw)
    log.append(f"anchor norm^2 over the full {k}-element hull: {anchor_sq:.6g}")

    blocks = []
    dists_sq = []
    for s in range(k - 1):
        idx = np.arange(s, min(s + window, k))
        # window Gram with the anchor subtracted off:
        # <f_a - g*, f_b - g*> = G_ab - (G w*)_a - (G w*)_b + ||g*||^2
        Gs = G[np.ix_(idx, idx)] - Gw[idx][:, None] - Gw[idx][None, :] + anchor_sq
        v = min_norm_point(Gs)
        blocks.append(WeightBlock(s, v))
        dists_sq.append(max(0.0, float(v @ Gs @ v)))

    d_last = dists_sq[-1]
    scale = max(1.0, max(dists_sq))
    errors = []
    prev = np.inf
    for s, dsq in enumerate(dists_sq):
        e = float(np.sqrt(max(0.0, d_last - dsq)))
        if e > prev + 1e-9 * scale:
            raise ConvergenceError(
                f"hull distances to the anchor decreased at step {s}; windows are "
                "not nested (prefix longer than the window) and no certificate holds",
                [float(np.sqrt(d)) for d in dists_sq],
            )
        prev = min(prev, e)
        errors.append(e)
        log.append(
            f"step {s}: window [{s}, {min(s + window, k)}), "
            f"anchor dist {np.sqrt(dsq):.6g}, certified err {e:.6g}"
        )

    run_start = None
    for s in range(len(errors)):
        if all(errors[t] <= tol for t in range(s, len(errors))):
            run_start = s
            break
    if run_start is None or len(errors) - run_start < 2:
        raise ConvergenceError(
            f"no 2-step converged tail at tol {tol:g}; "
            "certified errors " + ", ".join(f"{e:.3g}" for e in errors),
            errors,
        )
    log.append(f"converged from step {run_start} of {len(blocks)} (tol {tol:g})")
    return ConvexWeights(
        blocks=tuple(blocks),
        errors=tuple(errors),
        converged_from=run_start,
        tol=tol,
        log=tuple(log),
    )


def extract_convex(
    vectors,
    tol: float = DEFAULT_TOL,
    prob: np.ndarray | None = None,
    window: int = DEFAULT_WINDOW,
) -> tuple[ConvexWeights, np.ndarray]:
    """Extraction on a concrete sequence (rows); returns weights and the
    limit, which is the combination chosen at the final step."""
    cw, (limit,) = extract_convex_multi([vectors], tol=tol, prob=prob, window=window)
    return cw, limit


def extract_convex_multi(
    seqs,
    tol: float = DEFAULT_TOL,
    prob: np.ndarray | None = None,
    window: int = DEFAULT_WINDOW,
) -> tuple[ConvexWeights, list[np.ndarray]]:
    """One weight schedule making several sequences converge at once.

    Summing the Gram matrices is the inner product of the stacked vectors
    (f_s^(1), ..., f_s^(r)); convergence in the stacked norm forces
    convergence of every component under the same weights.  A sequence
    may be given as a function of no arguments that builds it; it is
    called once for its Gram matrix and once for its limit, so that no
    two built sequences need be held at once.
    """

    def rows(seq):
        vecs = np.asarray(seq() if callable(seq) else seq, dtype=float)
        return vecs[:, None] if vecs.ndim == 1 else vecs

    mats = [gram_matrix(rows(seq), prob) for seq in seqs]
    if not mats:
        raise ParameterError("need at least one sequence")
    shape = mats[0].shape
    for g in mats[1:]:
        if g.shape != shape:
            raise ParameterError("all sequences must share a length")
    total = np.zeros(shape)
    for g in mats:
        total += g
    cw = extract_convex_gram(total, tol=tol, window=window)
    limits = [cw.combination(cw.n_steps - 1, rows(seq)) for seq in seqs]
    return cw, limits
