"""Reference processes with known ground truth.

All kinds are driven by +/-1 innovations, so on a full binary tree every
expectation is exact.  The emitted process is the raw construction for
the kind divided by its analytic supremum bound whenever that bound
exceeds 1; the jump kind adds its jump after normalization, since a jump
of magnitude >= 1 is its whole point.

Every kind is linear in the innovations, which gives a closed-form
conditional-increment (compensator) oracle at any coarser dyadic level:
the increments of the predictable part are kernel-weighted sums of the
innovations already revealed.  The oracle makes level statistics
available in ensemble mode, where the full tree is out of reach.
"""

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import permutations, product

import numpy as np

from .doob import doob_decompose
from .errors import InvariantViolation, ParameterError, ResourceLimitError
from .space import AdaptedProcess, DyadicGrid, FilteredSpace, running_sum, tree_innovations

KINDS = ("rademacher_bm", "drifted", "rl_fractional", "jump", "deterministic_drift")
# the finest level in every mode; a tree of innovations also stops at space.MAX_TREE_LEVEL
MAX_LEVEL = 10
DEFAULT_PATHS = 16384
# paths x steps of the largest ensemble (default paths at level 10, ~2.3 GB peak)
MAX_ENSEMBLE_CELLS = DEFAULT_PATHS << MAX_LEVEL
SUP_TOL = 1e-12


@dataclass(frozen=True)
class GeneratorSpec:
    """What to generate: the process kind, dyadic level, and sampling mode.

    ``hurst`` only matters for rl_fractional, ``mu`` for drifted,
    ``jump_size`` for jump; the others ignore them.
    """

    kind: str
    level: int
    scale: float = 1.0
    seed: int = 0
    mode: str = "exact_tree"
    paths: int = DEFAULT_PATHS
    hurst: float = 0.75
    mu: float = 0.5
    jump_size: float = 1.5

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ParameterError(f"unknown kind {self.kind!r}; choose one of {KINDS}")
        if isinstance(self.seed, bool) or not isinstance(self.seed, int) or self.seed < 0:
            raise ParameterError(f"seed must be a non-negative integer, got {self.seed!r}")
        if self.level < 1 or int(self.level) != self.level:
            raise ParameterError(f"level must be a positive integer, got {self.level}")
        if self.level > MAX_LEVEL:
            raise ResourceLimitError(f"levels up to {MAX_LEVEL} are supported, got {self.level}")
        for name in ("scale", "mu", "jump_size"):
            if not math.isfinite(getattr(self, name)):
                raise ParameterError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.scale > 0:
            raise ParameterError(f"scale must be > 0, got {self.scale}")
        if self.mode not in ("exact_tree", "ensemble"):
            raise ParameterError(f"mode must be exact_tree or ensemble, got {self.mode!r}")
        if self.mode == "ensemble":
            if self.kind == "deterministic_drift":
                raise ParameterError("deterministic_drift has one path; use exact_tree mode")
            p = self.paths
            if p < 2 or p & (p - 1):
                raise ParameterError(
                    f"paths must be a power of two >= 2 for exact dyadic probabilities, got {p}"
                )
            if p << self.level > MAX_ENSEMBLE_CELLS:
                raise ResourceLimitError(
                    f"paths: {p} paths of 2^{self.level} steps exceed the "
                    f"{MAX_ENSEMBLE_CELLS} innovation cells ensemble mode supports"
                )
        if not 0 < self.hurst < 1:
            raise ParameterError(f"hurst must lie in (0, 1), got {self.hurst}")
        if self.mu < 0:
            raise ParameterError(f"mu must be >= 0, got {self.mu}")
        if self.kind == "jump" and self.jump_size < 1:
            raise ParameterError(f"jump magnitude must be >= 1, got {self.jump_size}")

    @property
    def n_steps(self) -> int:
        return 1 << self.level


def rl_kernel(H: float, m: np.ndarray) -> np.ndarray:
    """Fractional moving-average weights k(m) = K(m) - K(m-1); k(1) = 1."""
    m = np.asarray(m, dtype=float)
    return rl_cum_kernel(H, m) - rl_cum_kernel(H, m - 1.0)


def rl_cum_kernel(H: float, m: np.ndarray) -> np.ndarray:
    """Partial kernel sums K(m) = sum_{l<=m} k(l) = m^(H-1/2), K(0) = 0.

    K(0) = 0 is enforced explicitly: the power alone would give 0^0 = 1
    at H = 1/2, breaking the degenerate-kernel case.
    """
    m = np.asarray(m, dtype=float)
    return np.where(m > 0, np.maximum(m, 1.0) ** (H - 0.5), 0.0)


def rl_normalizer(H: float, n_steps: int) -> float:
    """c with Var(S_1) = scale^2: c = (sum_m m^(2H-1))^(-1/2)."""
    m = np.arange(1, n_steps + 1, dtype=float)
    return float(1.0 / np.sqrt((m ** (2.0 * H - 1.0)).sum()))


def _jump_col(n_steps: int) -> int:
    # the step ending at t = 1/2
    return n_steps // 2 - 1


def _raw_sup(spec: GeneratorSpec) -> float:
    """The analytic supremum bound of the kind's raw construction (the
    jump kind's bound leaves out its jump)."""
    n = spec.level
    if spec.kind in ("rademacher_bm", "jump"):
        return spec.scale * 2.0 ** (n / 2)
    if spec.kind == "drifted":
        return spec.scale * 2.0 ** (n / 2) + spec.mu
    if spec.kind == "rl_fractional":
        q = spec.scale * rl_normalizer(spec.hurst, spec.n_steps)
        return q * float(rl_cum_kernel(spec.hurst, np.arange(1, spec.n_steps + 1)).sum())
    # deterministic_drift: the line t -> scale t
    return spec.scale


def bound_factor_for(spec: GeneratorSpec) -> float:
    """The normalization divisor, a function of the spec alone."""
    return max(1.0, _raw_sup(spec))


def _emitted_increments(spec: GeneratorSpec, xi: np.ndarray) -> np.ndarray:
    """Emitted increments of the kind for the given innovation rows."""
    n = spec.level
    L = spec.n_steps
    x = xi.astype(float)
    B = bound_factor_for(spec)
    if spec.kind in ("rademacher_bm", "jump"):
        # scale cancels against the bound, leaving the exact dyadic 2^-n
        coef = 2.0 ** (-n) if _raw_sup(spec) >= 1.0 else spec.scale * 2.0 ** (-n / 2)
        dS = coef * x
        if spec.kind == "jump":
            dS[:, _jump_col(L)] += spec.jump_size * x[:, _jump_col(L)]
        return dS
    if spec.kind == "drifted":
        return (spec.scale * 2.0 ** (-n / 2) * x + spec.mu * 2.0 ** (-n)) / B
    if spec.kind == "rl_fractional":
        H = spec.hurst
        q = spec.scale * rl_normalizer(H, L)
        # lower-triangular Toeplitz of kernel values: row j holds k(j-i+1)
        offs = np.arange(L)[:, None] - np.arange(L)[None, :] + 1
        T = np.where(offs >= 1, rl_kernel(H, np.maximum(offs, 1)), 0.0)
        return (q / B) * (x @ T.T)
    raise ParameterError(f"kind {spec.kind!r} is not innovation-driven")


def oracle_increments(spec: GeneratorSpec, xi: np.ndarray, n: int) -> np.ndarray:
    """Exact predictable-part increments at dyadic level n (emitted scaling).

    Conditioning kills every innovation not yet revealed, so the level-n
    compensator increment over a coarse step is the sum of the cumulative
    kernel differences against the revealed innovations only.
    """
    if n < 1 or n > spec.level:
        raise ParameterError(f"oracle level {n} outside 1..{spec.level}")
    L = spec.n_steps
    Bs = 1 << (spec.level - n)
    m_coarse = L // Bs
    rows = xi.shape[0]
    if spec.kind in ("rademacher_bm", "jump"):
        return np.zeros((rows, m_coarse))
    if spec.kind == "drifted":
        return np.full((rows, m_coarse), spec.mu * 2.0 ** (-n) / bound_factor_for(spec))
    if spec.kind == "rl_fractional":
        H = spec.hurst
        q = spec.scale * rl_normalizer(H, L)
        B = bound_factor_for(spec)
        # W[m-1, i-1] = K(m Bs - i + 1) - K((m-1) Bs - i + 1) for i <= (m-1) Bs
        ends = (np.arange(1, m_coarse + 1) * Bs)[:, None]
        i = np.arange(1, L + 1)[None, :]
        known = i <= ends - Bs
        W = np.where(
            known,
            rl_cum_kernel(H, np.maximum(ends - i + 1, 0))
            - rl_cum_kernel(H, np.maximum(ends - Bs - i + 1, 0)),
            0.0,
        )
        return (q / B) * (xi.astype(float) @ W.T)
    raise ParameterError(f"kind {spec.kind!r} has no compensator oracle")


def _certify_bounded(spec: GeneratorSpec, values: np.ndarray):
    sup = float(np.abs(values).max())
    if spec.kind != "jump" and sup > 1.0 + SUP_TOL:
        raise InvariantViolation(f"emitted process has sup norm {sup} > 1")


# numpy's SeedSequence constants; PCG64's 128-bit multiplier in 64-bit limbs
_M32, _MIX_L, _MIX_R = 0xFFFFFFFF, 0xCA01F9DD, 0x4973F715
_HASH_A, _HASH_B = (0x43B0D7E5, 0x931E8875), (0x8B51F9DD, 0x58F38DED)
_PCG_HI, _PCG_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645
PATH_BLOCK = 1 << 14  # paths sampled together; each uint64 temporary is 128 KB


def _hashmix(v, h: list):
    """SeedSequence's hashmix of v; h = [constant, multiplier] advances."""
    v, h[0] = v ^ h[0], h[0] * h[1] & _M32
    v = v * h[0] & _M32
    return v ^ v >> 16


def _mix(x, y):
    r = ((_MIX_L * x & _M32) - (_MIX_R * y & _M32)) & _M32
    return r ^ r >> 16


def _seed_states(seed: int, rows: np.ndarray) -> list:
    """`SeedSequence(seed, spawn_key=(r,)).generate_state(4, np.uint64)` for every
    r in rows at once, as four uint64 arrays, by numpy's published algorithm: the
    seed's 32-bit words are Python ints all rows share, the spawn word r < 2^32 an array."""
    # with a spawn key, the seed's words are zero-padded to the pool's four
    entropy = [seed >> s & _M32 for s in range(0, max(seed.bit_length(), 128), 32)]
    entropy.append(rows.astype(np.uint32))
    h = list(_HASH_A)
    pool = [_hashmix(w, h) for w in entropy[:4]]
    for src, dst in permutations(range(4), 2):
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], h))
    for w, dst in product(entropy[4:], range(4)):  # the seed's fifth word on, then r
        pool[dst] = _mix(pool[dst], _hashmix(w, h))
    h = list(_HASH_B)
    state = [_hashmix(pool[i % 4], h).astype(np.uint64) for i in range(8)]
    return [lo | hi << 32 for lo, hi in zip(state[::2], state[1::2])]


def _lcg_step(hi, lo, inc_hi, inc_lo):
    """PCG64's step state * multiplier + inc mod 2^128, in place on every path's
    uint64 limbs; hi(lo * _PCG_LO) is summed from 32-bit partial products."""
    a0, a1 = lo & _M32, lo >> 32
    t = a1 * (_PCG_LO & _M32) + (a0 * (_PCG_LO & _M32) >> 32)
    u = a0 * (_PCG_LO >> 32) + (t & _M32)
    hi *= _PCG_LO
    hi += a1 * (_PCG_LO >> 32) + (t >> 32) + (u >> 32) + lo * _PCG_HI + inc_hi
    lo *= _PCG_LO
    lo += inc_lo
    hi += lo < inc_lo


def _sample_innovations(spec: GeneratorSpec) -> np.ndarray:
    """One +/-1 row per path, each from its own spawned seed stream: row r
    reads the PCG64 seeded by `SeedSequence(seed, spawn_key=(r,))`.  Its
    bits are those that `Generator.integers(0, 2)` would draw from that
    stream: the top bit of each 32-bit half of the raw 64-bit outputs, the
    low half first.  A block of paths' streams is seeded and run together."""
    xi = np.empty((spec.paths, spec.n_steps), dtype=np.int8)
    n = min(spec.paths, PATH_BLOCK)  # divides the paths, a power of two
    for r0 in range(0, spec.paths, n):
        s_hi, s_lo, q_hi, q_lo = _seed_states(spec.seed, np.arange(r0, r0 + n)[:, None])
        # PCG64's seeding: inc = 2q + 1; the zero state steps to inc, adds s, steps
        inc_hi, inc_lo = q_hi << 1 | q_lo >> 63, q_lo << 1 | 1
        lo = inc_lo + s_lo
        hi = inc_hi + s_hi + (lo < s_lo)
        _lcg_step(hi, lo, inc_hi, inc_lo)
        for k in range(spec.n_steps // 2):
            _lcg_step(hi, lo, inc_hi, inc_lo)
            # XSL-RR output: hi ^ lo rotated right by the state's top six
            # bits; keep the top bit of each 32-bit half, in bits 0 and 32
            x, rot = hi ^ lo, hi >> 58
            x = (x >> rot | x << (64 - rot & 63)) >> 31 & 0x100000001
            xi[r0:r0 + n, 2 * k:2 * k + 2] = x.astype("<u8", copy=False).view("<u4")
    xi *= -2  # bits 0 and 1 to innovations +1 and -1, in place
    xi += 1
    return xi


def _empirical_labels(xi: np.ndarray) -> np.ndarray:
    """Refining partitions grouping paths by innovation prefixes; a cell's
    id is its prefix's rank among the distinct prefixes in sorted order."""
    paths, L = xi.shape
    labels = np.zeros((L + 1, paths), dtype=np.int32)
    for j in range(1, L + 1):
        pairs = labels[j - 1] * 2 + (xi[:, j - 1] > 0)
        # dense ranks by counting, as np.unique would give them without a sort
        rank = np.cumsum(np.bincount(pairs) > 0) - 1
        labels[j] = rank[pairs]
        if rank[-1] == paths - 1:
            # singleton cells: ranking distinct 2 label + bit keeps each label
            labels[j + 1:] = labels[j]
            break
    labels.setflags(write=False)  # fresh, so the space keeps it uncopied
    return labels


@dataclass(frozen=True)
class Source:
    """A process as generated or read from a file: the spec, the atom
    probabilities, the +/-1 innovation rows (None for deterministic_drift)
    and the path values.

    The filtration is rebuilt from the innovations, and ``process`` rejects
    values that are not finite or not adapted to it, so every source is
    checked once, where it enters the pipeline.
    """

    spec: GeneratorSpec
    probs: np.ndarray
    xi: np.ndarray | None
    values: np.ndarray

    @cached_property
    def space(self) -> FilteredSpace:
        grid = DyadicGrid(self.spec.level)
        if self.xi is None:
            labels = np.zeros((grid.n_times, self.probs.size), dtype=np.int32)
        else:
            labels = _empirical_labels(self.xi)
        return FilteredSpace(grid, self.probs, labels)

    @cached_property
    def process(self) -> AdaptedProcess:
        S = AdaptedProcess(self.space, self.values)
        if not np.all(np.isfinite(S.values)):
            raise ParameterError("process values must be finite")
        S.require_adapted()
        return S

    def drift_increments(self, n: int) -> np.ndarray | None:
        """The closed-form oracle's level-n A-increments on a sampled
        ensemble; None on an exact tree, whose cells give exact averages."""
        if self.spec.mode != "ensemble":
            return None
        return oracle_increments(self.spec, self.xi, n)


# the name the ensemble-only class had; perfbench/op.py and
# perfbench/smoke_check.py check sources against it
EnsembleProcess = Source
# the oracle decomposer's old name; perfbench/spans.py wraps it, and the
# package reaches the one constructor as doob.doob_decompose
decompose_with_increments = doob_decompose


def generate(spec: GeneratorSpec) -> Source:
    """Sample the process: every atom of the full tree in exact_tree mode,
    spec.paths equally likely paths in ensemble mode."""
    if spec.kind == "deterministic_drift":
        xi = None
        values = (spec.scale / bound_factor_for(spec)) * DyadicGrid(spec.level).times[None, :]
    else:
        xi = tree_innovations(spec.level) if spec.mode == "exact_tree" else _sample_innovations(spec)
        values = running_sum(_emitted_increments(spec, xi))
    _certify_bounded(spec, values)
    n = values.shape[0]
    return Source(spec, np.full(n, 1.0 / n), xi, values)
