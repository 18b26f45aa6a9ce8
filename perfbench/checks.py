"""Recheck a verdict from raw arrays, without trusting the verdict's own fields.

Each function takes plain numpy arrays and returns the list of rules
that fail (empty when the verdict holds), so a test can corrupt one
array and watch the matching rule fire.
"""

import numpy as np

CERT_TOL = 1e-10
FL_TARGET = 1e-3


def _cell_means(labels: np.ndarray, probs: np.ndarray, x: np.ndarray) -> np.ndarray:
    mass = np.bincount(labels, weights=probs)
    return (np.bincount(labels, weights=probs * x) / mass)[labels]


def certificate_errors(S, probs, labels, M, A, alpha_index, tv_bound) -> list:
    """M + A = S^alpha, M adapted and a martingale on the cells, A_0 = 0, TV(A) <= tv_bound.

    S, M, A are (atoms, times) on the full grid, labels is (times, atoms),
    alpha_index holds a grid index per atom with n_times meaning infinity.
    """
    errors = []
    n_atoms, n_times = S.shape
    if M.shape != S.shape or A.shape != S.shape:
        return [f"M {M.shape} / A {A.shape} do not match S {S.shape}"]
    cap = np.minimum(np.asarray(alpha_index), n_times - 1)
    cols = np.minimum(np.arange(n_times)[None, :], cap[:, None])
    stopped = np.take_along_axis(S, cols, axis=1)
    resid = float(np.abs(M + A - stopped).max())
    if resid > CERT_TOL:
        errors.append(f"|M + A - S^alpha| = {resid:.3g} > {CERT_TOL:g}")
    for j in range(n_times):
        off = float(np.abs(M[:, j] - _cell_means(labels[j], probs, M[:, j])).max())
        if off > CERT_TOL:
            errors.append(f"M not adapted at time index {j}: {off:.3g}")
            break
    for j in range(n_times - 1):
        drift = float(np.abs(_cell_means(labels[j], probs, M[:, j + 1] - M[:, j])).max())
        if drift > CERT_TOL:
            errors.append(f"M not a martingale at time index {j}: E[dM | F] = {drift:.3g}")
            break
    a0 = float(np.abs(A[:, 0]).max())
    if a0 > CERT_TOL:
        errors.append(f"A_0 = {a0:.3g} != 0")
    tv = float(np.abs(np.diff(A, axis=1)).sum(axis=1).max())
    if tv > tv_bound + CERT_TOL:
        errors.append(f"TV(A) = {tv:.6g} > tv_bound {tv_bound:.6g}")
    return errors


def integral_paths(S, mesh_index, weights) -> np.ndarray:
    """Running integral (H.S)_t on the full grid for one simple integrand.

    mesh_index is (atoms, N+1) grid indices tau_0..tau_N (n_times meaning
    infinity, read as the horizon); weights is (atoms, N), f_j held on
    (tau_{j-1}, tau_j].  Built from a difference array, independently of
    semimart's searchsorted construction.
    """
    n_atoms, n_times = S.shape
    eff = np.minimum(np.asarray(mesh_index), n_times - 1)
    diff = np.zeros((n_atoms, n_times))
    rows = np.repeat(np.arange(n_atoms), weights.shape[1])
    # step k (from time k to k+1) carries f_j when tau_{j-1} <= k < tau_j
    np.add.at(diff, (rows, eff[:, :-1].ravel()), weights.ravel())
    np.add.at(diff, (rows, eff[:, 1:].ravel()), -weights.ravel())
    hold = np.cumsum(diff, axis=1)[:, :-1]
    running = np.cumsum(hold * np.diff(S, axis=1), axis=1)
    return np.concatenate([np.zeros((n_atoms, 1)), running], axis=1)


def free_lunch_errors(S, probs, strategies, alpha_star) -> list:
    """li strictly decreasing below 1e-3, final vr below 1e-3, every fl >= alpha_star.

    strategies is a list of (mesh_index, weights) pairs as integral_paths takes.
    """
    errors = []
    if not alpha_star > 0:
        return [f"alpha_star = {alpha_star} is not positive"]
    li, vr, fl = [], [], []
    for mesh_index, weights in strategies:
        paths = integral_paths(S, mesh_index, weights)
        li.append(float(np.abs(weights).max()) if weights.size else 0.0)
        vr.append(float(np.maximum(-paths, 0.0).max()))
        fl.append(float(probs[paths[:, -1] >= alpha_star].sum()))
    if not li:
        return ["no strategies"]
    if any(b >= a for a, b in zip(li, li[1:])):
        errors.append(f"li not strictly decreasing: {li}")
    if not li[-1] < FL_TARGET:
        errors.append(f"final li {li[-1]:.3g} not below {FL_TARGET:g}")
    if not vr[-1] < FL_TARGET:
        errors.append(f"final vr {vr[-1]:.3g} not below {FL_TARGET:g}")
    low = [p for p in fl if p < alpha_star]
    if low:
        errors.append(f"fl {low} below alpha_star {alpha_star:.6g}")
    return errors
