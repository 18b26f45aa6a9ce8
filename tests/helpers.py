"""Test-only helpers that the package itself never calls."""

import numpy as np

from semimart.errors import StructuralError
from semimart.integrands import SimpleIntegrand
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
