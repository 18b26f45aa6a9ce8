"""Test-only helpers that the package itself never calls."""

import numpy as np

from semimart.errors import StructuralError
from semimart.integrands import SimpleIntegrand
from semimart.pipeline import PAD_COPIES, extend_martingale
from semimart.space import AdaptedProcess, binary_tree_space, stop_process


def build_binary_tree(level: int, innovation_map):
    """Binary tree space plus a process defined by a prefix map.

    ``innovation_map`` maps a sign prefix (tuple) to the process value at
    the prefix's end time.  Returns (FilteredSpace, AdaptedProcess).
    """
    space = binary_tree_space(level)
    grid = space.grid
    values = np.empty((space.n_atoms, grid.n_times))
    cache: dict[tuple, float] = {}
    for a in range(space.n_atoms):
        row = space.innovations[a]
        for j in range(grid.n_times):
            prefix = tuple(int(s) for s in row[:j])
            if prefix not in cache:
                cache[prefix] = float(innovation_map(prefix))
            values[a, j] = cache[prefix]
    return space, AdaptedProcess(space, values)


def combine(H: SimpleIntegrand, a: float, other: SimpleIntegrand, b: float) -> SimpleIntegrand:
    """a*H + b*other; both must share the same mesh."""
    if other.space is not H.space:
        raise StructuralError("integrands live on different spaces")
    if len(other.mesh) != len(H.mesh) or any(
        not np.array_equal(s.index, o.index) for s, o in zip(H.mesh, other.mesh)
    ):
        raise StructuralError("integrands must share a common mesh to combine")
    return SimpleIntegrand(H.space, H.mesh, a * H.weights + b * other.weights)


def residual_against(cert, S: AdaptedProcess) -> float:
    """Max deviation of a certificate's M + A from S stopped at its alpha."""
    stopped = stop_process(S, cert.alpha)
    return float(np.abs(cert.M.values + cert.A.values - stopped.values).max())


def per_position_mixes(source: AdaptedProcess, certs, cw) -> list:
    """(script-M, script-A) values of every extraction step, mixed per
    padded position: the certificates padded by repeating the finest, each
    position extended on its own, and mu_j * R_i[:, 1:] * dM_i accumulated
    in block order.  The reference for the continuous stage's mixes."""
    certs = tuple(certs) + (certs[-1],) * PAD_COPIES
    space = source.space
    n_times = space.grid.n_times
    R = np.empty((len(certs), space.n_atoms, n_times))
    for i, c in enumerate(certs):
        R[i] = np.arange(n_times)[None, :] <= c.rho.index[:, None]
    ext = [extend_martingale(c.decomposition, source, rho=c.rho, C=c.C) for c in certs]
    dM = [np.diff(M.values, axis=1) for M, _ in ext]
    dA = [np.diff(A.values, axis=1) for _, A in ext]
    zeros = np.zeros((space.n_atoms, 1))
    out = []
    for blk in cw.blocks:
        mu, idx = blk.weights, blk.indices
        rbar = np.einsum("k,kat->at", mu, R[idx])
        mask = rbar >= 0.5
        w = np.where(mask[:, 1:], 1.0 / np.where(mask[:, 1:], rbar[:, 1:], 1.0), 0.0)
        dN_m = np.zeros((space.n_atoms, n_times - 1))
        dN_a = np.zeros((space.n_atoms, n_times - 1))
        for j, i in enumerate(idx):
            dN_m += mu[j] * R[i][:, 1:] * dM[i]
            dN_a += mu[j] * R[i][:, 1:] * dA[i]
        out.append((
            np.concatenate([zeros, np.cumsum(w * dN_m, axis=1)], axis=1),
            np.concatenate([zeros, np.cumsum(w * dN_a, axis=1)], axis=1),
        ))
    return out
