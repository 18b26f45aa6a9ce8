"""File formats: ensemble files (JSON lines) and report files (JSON).

An ensemble file is one header object plus one line per atom carrying an
exact dyadic probability, the +/-1 innovation row, and the path values
as 17-significant-digit decimal strings (bit-exact round trip for
float64).  A report file wraps a canonical body under a timestamp; the
body is byte-reproducible from the ensemble file and the configuration,
which is what `verify` exploits.
"""

import hashlib
import json
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ParameterError
from .generators import (
    KINDS,
    GeneratorSpec,
    ensemble_from_arrays,
    tree_space_from_innovations,
)
from .space import AdaptedProcess, DyadicGrid, FilteredSpace

ENSEMBLE_FORMAT = "semimart-ensemble-1"
REPORT_FORMAT = "semimart-report-1"
INLINE_ATOM_LIMIT = 1024
# rows are encoded and decoded in blocks of about this many cells, which
# bounds the Python objects alive at once whatever the row width
BLOCK_CELLS = 1 << 16


def fmt17(x) -> str:
    """Decimal encoding that round-trips float64 exactly."""
    return format(float(x), ".17g")


def _cells(cell: str, k: int) -> str:
    """A `%` template for k comma-separated cells.  `"%.17g" % x` runs the
    same float-to-string conversion as `fmt17`, one C call per row."""
    return ",".join([cell] * k)


def _blocks(n: int, width: int):
    """Row ranges [lo, hi) of about BLOCK_CELLS cells (at least one row)."""
    step = max(1, BLOCK_CELLS // max(width, 1))
    return [(lo, min(lo + step, n)) for lo in range(0, n, step)]


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def dyadic_encode(p: float) -> list:
    """Probability as [numerator, k] meaning numerator / 2**k, exactly."""
    frac = Fraction(p)
    den = frac.denominator
    k = den.bit_length() - 1
    if 1 << k != den:
        raise ParameterError(f"probability {p!r} is not dyadic")
    return [frac.numerator, k]


def dyadic_decode(entry, where: str) -> float:
    if (
        not isinstance(entry, list)
        or len(entry) != 2
        or not all(isinstance(v, int) for v in entry)
        or entry[0] < 1
        or entry[1] < 0
    ):
        raise ParameterError(f"{where}: probability must be [numerator, log2 denominator]")
    return entry[0] * 2.0 ** (-entry[1])


@dataclass(frozen=True)
class EnsembleData:
    """Parsed ensemble file plus the hash of its raw bytes."""

    spec: GeneratorSpec
    probs: np.ndarray
    xi: np.ndarray | None
    values: np.ndarray
    sha256: str

    def to_source(self):
        """The object `detect`/`decompose` consume."""
        if self.spec.kind == "deterministic_drift":
            grid = DyadicGrid(self.spec.level)
            space = FilteredSpace(
                grid, self.probs, np.zeros((grid.n_times, self.probs.size), dtype=np.int64)
            )
            return space, AdaptedProcess(space, self.values)
        if self.spec.mode == "ensemble":
            return ensemble_from_arrays(self.spec, self.xi, self.values)
        space = tree_space_from_innovations(self.spec.level, self.probs, self.xi)
        return space, AdaptedProcess(space, self.values)


def write_ensemble(path, spec: GeneratorSpec, probs, xi, values) -> None:
    probs = np.asarray(probs, dtype=float)
    values = np.asarray(values, dtype=float)
    n = probs.size
    xi = np.empty((n, 0), dtype=np.int8) if xi is None else np.asarray(xi)
    header = {
        "format": ENSEMBLE_FORMAT,
        "kind": spec.kind,
        "level": spec.level,
        "scale": fmt17(spec.scale),
        "seed": spec.seed,
        "mode": spec.mode,
        "paths": spec.paths,
        "hurst": fmt17(spec.hurst),
        "mu": fmt17(spec.mu),
        "jump_size": fmt17(spec.jump_size),
        "atoms": n,
    }
    distinct, inverse = np.unique(probs, return_inverse=True)
    codes = [dyadic_encode(p) for p in distinct]
    # the key order and separators of `_canonical`
    v_cells, xi_cells = _cells('"%.17g"', values.shape[1]), _cells("%d", xi.shape[1])
    row = '{"p":[%d,%d],"v":[' + v_cells + '],"xi":[' + xi_cells + "]}\n"
    with open(path, "w") as fh:
        fh.write(_canonical(header) + "\n")
        for lo, hi in _blocks(n, values.shape[1] + xi.shape[1]):
            fh.write("".join([
                row % (*codes[c], *v, *x)
                for c, v, x in zip(inverse[lo:hi].tolist(), values[lo:hi].tolist(), xi[lo:hi].tolist())
            ]))


def _header_field(header: dict, key: str, kinds, where: str = "header"):
    if key not in header:
        raise ParameterError(f"{where}.{key}: missing")
    value = header[key]
    if not isinstance(value, kinds):
        raise ParameterError(f"{where}.{key}: wrong type {type(value).__name__}")
    return value


def read_ensemble(path) -> EnsembleData:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ParameterError(f"cannot read ensemble file: {exc}") from exc
    sha = hashlib.sha256(raw).hexdigest()
    lines = raw.decode("utf-8").splitlines()
    if not lines:
        raise ParameterError("header: file is empty")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise ParameterError(f"header: not valid JSON ({exc})") from exc
    if not isinstance(header, dict):
        raise ParameterError("header: must be a JSON object")
    if _header_field(header, "format", str) != ENSEMBLE_FORMAT:
        raise ParameterError(f"header.format: expected {ENSEMBLE_FORMAT!r}")
    kind = _header_field(header, "kind", str)
    if kind not in KINDS:
        raise ParameterError(f"header.kind: unknown kind {kind!r}")
    try:
        spec = GeneratorSpec(
            kind=kind,
            level=_header_field(header, "level", int),
            scale=float(_header_field(header, "scale", str)),
            seed=_header_field(header, "seed", int),
            mode=_header_field(header, "mode", str),
            paths=_header_field(header, "paths", int),
            hurst=float(_header_field(header, "hurst", str)),
            mu=float(_header_field(header, "mu", str)),
            jump_size=float(_header_field(header, "jump_size", str)),
        )
    except (ParameterError, ValueError) as exc:
        raise ParameterError(f"header: {exc}") from exc
    n = _header_field(header, "atoms", int)
    if len(lines) - 1 != n:
        raise ParameterError(f"header.atoms: declares {n} atoms, file has {len(lines) - 1} rows")

    n_values = spec.n_steps + 1
    xi_len = 0 if kind == "deterministic_drift" else spec.n_steps
    entries = np.empty((n, 2), dtype=np.int64)  # [numerator, k] per atom
    xi = np.empty((n, xi_len), dtype=np.int8)
    values = np.empty((n, n_values))
    for lo, hi in _blocks(n, n_values + xi_len):
        block = _decode_block(lines[lo + 1 : hi + 1], xi_len, n_values)
        if block is None:
            _reject_block(lines, lo, hi, xi_len, n_values)
        entries[lo:hi], xi[lo:hi], values[lo:hi] = block
    distinct, inverse, counts = np.unique(entries, axis=0, return_inverse=True, return_counts=True)
    distinct = distinct.tolist()
    probs = np.array([dyadic_decode(e, "p") for e in distinct])[inverse]
    max_k = max((k for _, k in distinct), default=0)
    num_sum = sum(c * num << (max_k - k) for (num, k), c in zip(distinct, counts.tolist()))
    if num_sum != 1 << max_k:
        raise ParameterError("p (sum): probabilities do not sum to 1 exactly")
    return EnsembleData(
        spec=spec,
        probs=probs,
        xi=None if xi_len == 0 else xi,
        values=values,
        sha256=sha,
    )


def _decode_block(lines, xi_len: int, n_values: int):
    """(p entries, xi, values) arrays of a block of atom rows, or None when
    any row fails a check; the rows' own checks then name the fault."""
    try:
        rows = [json.loads(line) for line in lines]
        entries = np.array([r["p"] for r in rows])
        x = np.array([r["xi"] for r in rows])
        v = np.array([r["v"] for r in rows], dtype=float)
    except (KeyError, TypeError, ValueError, OverflowError):
        # not JSON, not an object, a missing key, ragged or mixed lists
        return None
    b = len(rows)
    if (
        entries.shape != (b, 2)
        or entries.dtype.kind not in "bi"
        or np.any(entries[:, 0] < 1)
        or np.any(entries[:, 1] < 0)
        or x.shape != (b, xi_len)
        or not np.all((x == 1) | (x == -1))
        or v.shape != (b, n_values)
        # JSON null converts to nan here, so it lands in the row checks
        or not np.all(np.isfinite(v))
    ):
        return None
    return entries, x, v


def _reject_block(lines, lo: int, hi: int, xi_len: int, n_values: int):
    """Every check on the rows of atoms lo..hi-1, in order: raises the
    ParameterError naming the first faulty atom and field."""
    for a in range(lo, hi):
        where = f"atom {a}"
        try:
            row = json.loads(lines[a + 1])
        except json.JSONDecodeError as exc:
            raise ParameterError(f"{where}: not valid JSON ({exc})") from exc
        if not isinstance(row, dict):
            raise ParameterError(f"{where}: must be a JSON object")
        for key in ("p", "xi", "v"):
            if key not in row:
                raise ParameterError(f"{where}.{key}: missing")
        dyadic_decode(row["p"], f"{where}.p")
        x = row["xi"]
        if not isinstance(x, list) or len(x) != xi_len or any(v not in (-1, 1) for v in x):
            raise ParameterError(f"{where}.xi: need {xi_len} entries from {{-1, +1}}")
        v = row["v"]
        if not isinstance(v, list) or len(v) != n_values:
            raise ParameterError(f"{where}.v: need {n_values} values")
        try:
            values = [float(s) for s in v]
        except (TypeError, ValueError) as exc:
            raise ParameterError(f"{where}.v: {exc}") from exc
        if not np.all(np.isfinite(values)):
            raise ParameterError(f"{where}.v: values must be finite")
    # every row passed on its own: only [numerator, k] entries past 64
    # bits get here, which the block conversion does not take
    raise ParameterError(f"atoms {lo}-{hi - 1}.p: entries must fit in 64-bit integers")


def array_payload(arr: np.ndarray) -> dict:
    """Inline small arrays; summarize large ones behind a content hash."""
    arr = np.asarray(arr, dtype=float)
    row = _cells("%.17g", arr.shape[1])
    lines = [row % tuple(r) for r in arr.tolist()]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    out = {"shape": list(arr.shape), "sha256": digest}
    if arr.shape[0] <= INLINE_ATOM_LIMIT:
        out["data"] = [line.split(",") for line in lines]
    else:
        out["min"] = fmt17(arr.min())
        out["max"] = fmt17(arr.max())
        out["mean"] = fmt17(arr.mean())
    return out


def index_payload(idx: np.ndarray) -> dict:
    idx = np.asarray(idx, dtype=np.int64).tolist()
    digest = hashlib.sha256(",".join(map(str, idx)).encode()).hexdigest()
    out = {"shape": [len(idx)], "sha256": digest}
    if len(idx) <= INLINE_ATOM_LIMIT:
        out["data"] = idx
    return out


def _encode_scalar(x):
    if x is None or isinstance(x, (str, int, bool)):
        return x
    return fmt17(x)


def _table_rows(table) -> list:
    rows = []
    for row in table:
        rows.append({k: _encode_scalar(v) for k, v in row.items()})
    return rows


def report_body(data: EnsembleData, config, verdict) -> dict:
    body = {
        "source": {
            "sha256": data.sha256,
            "kind": data.spec.kind,
            "level": data.spec.level,
            "mode": data.spec.mode,
            "atoms": int(data.probs.size),
        },
        "config": {
            "eps": fmt17(config.eps),
            "tol": fmt17(config.tol),
            "levels": None if config.levels is None else [int(n) for n in config.levels],
            "ladder_max": fmt17(config.ladder_max),
            "window": int(config.window),
        },
        "verdict": verdict.kind,
        "levels": _table_rows(verdict.table),
        "log": list(verdict.log),
    }
    if verdict.kind == "certificate":
        body["payload"] = {
            "M": array_payload(verdict.M.values),
            "A": array_payload(verdict.A.values),
            "alpha_index": index_payload(verdict.alpha.index),
            "constants": {k: _encode_scalar(v) for k, v in sorted(verdict.constants.items())},
            "residuals": {k: _encode_scalar(v) for k, v in sorted(verdict.residuals.items())},
        }
    elif verdict.kind == "free_lunch":
        seq = verdict.strategies
        body["payload"] = {
            "alpha_star": fmt17(verdict.alpha_star),
            "levels": [int(n) for n in verdict.levels],
            "li": [fmt17(v) for v in seq.li],
            "vr": [fmt17(v) for v in seq.vr],
            "fl": [fmt17(v) for v in seq.fl],
        }
    else:
        body["payload"] = {"reason": verdict.reason}
    return body


def write_report(path, body: dict, source_name: str) -> None:
    doc = {
        "format": REPORT_FORMAT,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "source_name": source_name,
        "body": body,
    }
    with open(path, "w") as fh:
        fh.write(_canonical(doc) + "\n")


def read_report(path) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParameterError(f"cannot read report file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParameterError(f"report: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ParameterError("report: must be a JSON object")
    if doc.get("format") != REPORT_FORMAT:
        raise ParameterError(f"report.format: expected {REPORT_FORMAT!r}")
    for key in ("source_name", "body"):
        if key not in doc:
            raise ParameterError(f"report.{key}: missing")
    if not isinstance(doc["body"], dict):
        raise ParameterError("report.body: must be a JSON object")
    return doc


def first_mismatch(a, b, path: str = "body") -> str | None:
    """Path of the first differing field between two JSON-like trees."""
    if type(a) is not type(b):
        return path
    if isinstance(a, dict):
        for key in sorted(set(a) | set(b)):
            if key not in a or key not in b:
                return f"{path}.{key}"
            hit = first_mismatch(a[key], b[key], f"{path}.{key}")
            if hit:
                return hit
        return None
    if isinstance(a, list):
        if len(a) != len(b):
            return f"{path} (length)"
        for i, (x, y) in enumerate(zip(a, b)):
            hit = first_mismatch(x, y, f"{path}[{i}]")
            if hit:
                return hit
        return None
    return None if a == b else path
