"""File formats: ensemble files (JSON lines) and report files (JSON).

An ensemble file is one header object plus one line per atom carrying an
exact dyadic probability, the +/-1 innovation row, and the path values
as 17-significant-digit decimal strings (bit-exact round trip for
float64).  A report file wraps a canonical body under a timestamp; the
body is byte-reproducible from the ensemble file and the configuration,
which is what `verify` exploits.

Rows are written and read in blocks of about BLOCK_CELLS cells.  The
writer formats each distinct value of a block once when its values
repeat, and gathers the block's text from a table of those texts; when
they are mostly distinct, forked workers, one per CPU, format the blocks
and the writer writes them in order, so the bytes do not depend on the
CPU count.  The reader has two block paths.  A block
whose text has exactly the writer's layout is converted with one
`np.loadtxt` call; any other block goes through the checked row path,
which decodes each row as JSON and names the atom and the field of a
fault.  Both paths give the same arrays for every row the first takes.
"""

import errno
import hashlib
import io
import itertools
import json
import math
import os
import re
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ParameterError
from .generators import KINDS, GeneratorSpec, Source

ENSEMBLE_FORMAT = "semimart-ensemble-1"
REPORT_FORMAT = "semimart-report-1"
INLINE_ATOM_LIMIT = 1024
# rows are encoded and decoded in blocks of about this many cells, which
# bounds the Python objects alive at once whatever the row width
BLOCK_CELLS = 1 << 16
# cells sampled to decide whether a payload array repeats its values
PAYLOAD_SAMPLE = 4096
# the characters of a number; every other character of a row in the
# writer's layout belongs to its fixed skeleton
_NUMBER = b"0123456789.eE+-"
_CELLS_TO_SPACES = bytes.maketrans(b'",', b"  ")
# the line breaks of str.splitlines besides "\n" that ASCII text can hold
_OTHER_BREAKS = b"\r\x0b\x0c\x1c\x1d\x1e"
# one atom row in the writer's layout: its p, v and xi texts
_ROW = re.compile(rb'^\{"p":(\[[^]]*\]),"v":\[("[^]]*")\],"xi":\[([^]]*)\]\}$', re.M)


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


def open_output(path):
    """``path`` opened for writing; an unwritable path is bad input."""
    try:
        return open(path, "w")
    except OSError as exc:
        raise ParameterError(f"cannot write {path}: {exc.strerror or exc}") from exc


def check_output(path) -> None:
    """Raise what ``open_output(path)`` would for a path it cannot open,
    creating and truncating nothing."""
    parent = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.isdir(parent):
        code = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
    elif not os.access(path if os.path.exists(path) else parent, os.W_OK):
        code = errno.EACCES
    else:
        return
    raise ParameterError(f"cannot write {path}: {os.strerror(code)}")


def write_json(path, doc: dict) -> None:
    """doc as one canonical JSON line."""
    with open_output(path) as fh:
        fh.write(_canonical(doc) + "\n")


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

    def to_source(self) -> Source:
        """The object `detect`/`decompose` consume."""
        return Source(self.spec, self.probs, self.xi, self.values)


def write_ensemble(path, spec: GeneratorSpec, probs, xi, values) -> None:
    """Write an ensemble file: the header line, then one row per atom.

    Rows are formatted in blocks (`_blocks`).  When a sample of `values`
    shows mostly distinct cells, forked worker processes, one per CPU
    this process may run on, format the blocks and this process writes
    them in order; values that repeat, a single block or a single CPU
    keep the formatting here.  Either way every block is the same text,
    so the file's bytes do not depend on the CPU count."""
    probs = np.asarray(probs, dtype=float)
    values = np.asarray(values, dtype=float)
    n = probs.size
    xi = np.empty((n, 0), dtype=np.int8) if xi is None else np.asarray(xi, dtype=np.int8)
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
    codes = ["%d,%d" % tuple(dyadic_encode(p)) for p in distinct]
    # each row's text up to its first value, for blocks gathered whole
    heads = _table([b'{"p":[%s],"v":[' % c.encode() for c in codes])
    spans = _blocks(n, values.shape[1] + xi.shape[1])
    with open_output(path) as fh:
        fh.write(_canonical(header) + "\n")
        fh.writelines(_span_results(
            _block_text, (codes, heads, inverse, values, xi), spans, fork=not _repeats(values)
        ))


def _block_text(state, lo: int, hi: int) -> str:
    """The file text of atom rows lo..hi-1, in the key order and with the
    separators of `_canonical`.  A block whose values repeat is gathered
    whole from tables of cell texts; otherwise its values take the
    per-row template, and only its innovations are gathered."""
    codes, heads, inverse, values, xi = state
    v, n = values[lo:hi], hi - lo
    innovations = _gathered(_INNOVATIONS, xi[lo:hi].view(np.uint8))
    if _repeats(v):
        return _joined([
            np.take(heads, inverse[lo:hi], axis=0),
            *_value_cells(v, b'"%.17g"'),
            _constant(b'],"xi":[', n),
            *innovations,
            _constant(b"]}\n", n),
        ]).decode()
    row = _cells('"%.17g"', v.shape[1])
    return "".join([
        '{"p":[%s],"v":[%s],"xi":[%s]}\n' % (codes[c], row % tuple(r), x)
        for c, r, x in zip(
            inverse[lo:hi].tolist(),
            v.tolist(),
            _joined([*innovations, _constant(b"\n", n)]).decode().split("\n"),
        )
    ])


def _span_results(fn, state, spans, fork: bool):
    """Yield fn(state, lo, hi) for each span (lo, hi), in order.

    With `fork`, a pool of forked workers, one per CPU this process may
    run on, computes them: the workers inherit `state` through the fork,
    so only the spans and the results are pickled, and none of them
    outlives the iteration.  The spans are computed here instead with a
    single CPU or span, without `os.sched_getaffinity`, in a daemonic
    process (which may have no children), or when the pool cannot start."""
    cpus = len(os.sched_getaffinity(0)) if fork and hasattr(os, "sched_getaffinity") else 1
    workers = min(cpus, len(spans))
    pool = None
    if workers > 1:
        import multiprocessing

        if not multiprocessing.current_process().daemon:
            try:
                pool = multiprocessing.get_context("fork").Pool(
                    workers, _adopted.append, ((fn, state),)
                )
            except OSError:
                pass
    if pool is None:
        for lo, hi in spans:
            yield fn(state, lo, hi)
        return
    try:
        yield from pool.imap(_adopted_span, spans)
    finally:
        pool.terminate()
        pool.join()


# the (fn, state) of a forked worker of `_span_results`, which the pool's
# initializer appends; empty in every other process
_adopted = []


def _adopted_span(span):
    fn, state = _adopted[0]
    return fn(state, *span)


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
    if not raw:
        raise ParameterError("header: file is empty")
    # an ASCII file whose lines end in "\n" alone is read as bytes, never
    # decoded; any other file is re-encoded from the lines str.splitlines
    # cuts from its UTF-8 text
    if not raw.isascii() or any(c in raw for c in _OTHER_BREAKS):
        try:
            lines = raw.decode("utf-8").splitlines()
        except UnicodeDecodeError as exc:
            # the line that holds the bad byte, counted as above
            line = len((raw[:exc.start].decode() + ".").splitlines()) - 1
            where = f"atom {line - 1}" if line else "header"
            raise ParameterError(
                f"{where}: not valid UTF-8 (byte {exc.start} of the file: {exc.reason})"
            ) from exc
        raw = ("\n".join(lines) + "\n").encode()
        del lines  # not held through the parse below
    # as in str.splitlines, a break at the very end starts no line
    size = len(raw) - raw.endswith(b"\n")
    head_end = raw.find(b"\n", 0, size)
    if head_end < 0:
        head_end = size
    try:
        header = json.loads(raw[:head_end].decode())
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
    rows = raw.count(b"\n", head_end, size)
    if rows != n:
        raise ParameterError(f"header.atoms: declares {n} atoms, file has {rows} rows")

    n_values = spec.n_steps + 1
    xi_len = 0 if kind == "deterministic_drift" else spec.n_steps
    codes = {}  # [numerator, k] pair -> its position in the dict
    inverse = np.empty(n, dtype=np.intp)
    xi = np.empty((n, xi_len), dtype=np.int8)
    values = np.empty((n, n_values))
    lines_in = io.BytesIO(raw)  # shares raw's buffer
    lines_in.readline()
    for lo, hi in _blocks(n, n_values + xi_len):
        # rows lo..hi-1, each ended by "\n" unless it ends the file
        block = b"".join(itertools.islice(lines_in, hi - lo))
        parsed = _parse_block(block, hi - lo, xi_len, n_values, codes)
        if parsed is None:
            parsed = _checked_rows(block.decode().splitlines(), lo, xi_len, n_values, codes)
        inverse[lo:hi], xi[lo:hi], values[lo:hi] = parsed
    distinct = list(codes)
    counts = np.bincount(inverse, minlength=len(distinct)).tolist()
    probs = np.array([dyadic_decode(list(e), "p") for e in distinct])[inverse]
    if not _sums_to_one(distinct, counts):
        raise ParameterError("p (sum): probabilities do not sum to 1 exactly")
    # read-only, so the source's process shares these arrays instead of copying
    values.setflags(write=False)
    xi.setflags(write=False)
    return EnsembleData(
        spec=spec,
        probs=probs,
        xi=None if xi_len == 0 else xi,
        values=values,
        sha256=sha,
    )


def _sums_to_one(entries, counts) -> bool:
    """Whether count copies of each [numerator, k] entry, numerator / 2**k,
    sum to 1 exactly.  The sum runs from the largest k down and carries in
    units of 2**-k, so no integer outgrows the row count times 2**63,
    whatever k a row claims: a common denominator 2**k would take k bits."""
    by_k = {}
    for (num, k), c in zip(entries, counts):
        by_k[k] = by_k.get(k, 0) + c * num
    acc, at = 0, None
    for k in sorted(by_k, reverse=True):
        if at is not None:
            # the terms still to come are whole units of 2**-k, and so is 1
            if (acc & -acc).bit_length() - 1 < at - k:
                return False
            acc >>= at - k
        acc += by_k[k]
        at = k
    return at is not None and acc & (acc - 1) == 0 and acc.bit_length() - 1 == at


def _parse_block(block: bytes, b: int, xi_len: int, n_values: int, codes: dict):
    """(p positions in `codes`, xi, values) of b atom rows whose text has
    exactly the layout `write_ensemble` writes, or None for any other text.

    The regex pins each row's layout outside its v cells.  Within them,
    deleting the number characters must leave the cells' quotes and commas
    and no empty cell, so that the v tokens are ASCII number texts, which
    `float` and `np.loadtxt` parse alike (through PyOS_string_to_double).
    Each distinct [numerator, k] text must pass strict `json.loads`, and
    every innovation must be the literal token 1 or -1.  Together these
    accept only rows that `_checked_rows` accepts, with the same arrays."""
    rows = _ROW.findall(block)
    if len(rows) != b:
        return None
    p_texts, v_texts, xi_texts = zip(*rows)
    v_text = b"\n".join(v_texts)
    if v_text.translate(None, _NUMBER) != b"\n".join([b",".join([b'""'] * n_values)] * b) or b'""' in v_text:
        return None
    # deleting every "-" must leave tokens of 1 alone, and each "-" must
    # stand right before a 1: so each token is 1 or -1
    xi_text = b"\n".join(xi_texts)
    ones = b",".join([b"1"] * xi_len)
    if xi_text.translate(None, b"-") != b"\n".join([ones] * b) or xi_text.count(b"-") != xi_text.count(b"-1"):
        return None
    texts = {}  # each distinct [numerator, k] text -> its position in `codes`
    for text in dict.fromkeys(p_texts):
        try:
            entry = json.loads(text.decode())
        except ValueError:
            return None
        if not (
            len(entry) == 2
            and all(type(v) is int for v in entry)
            and 1 <= entry[0] < 1 << 63
            and 0 <= entry[1] < 1 << 63
        ):
            return None
        texts[text] = codes.setdefault(tuple(entry), len(codes))
    try:
        # a number put outside its quotes becomes a token of its own here
        v = np.loadtxt(v_text.translate(_CELLS_TO_SPACES).split(b"\n"), comments=None, ndmin=2)
    except ValueError:
        return None
    if v.shape != (b, n_values) or not np.all(np.isfinite(v)):
        return None
    # the sign of each innovation stands right before its 1; a text that
    # starts with a 1 wraps round to its last character, also a 1
    u = np.frombuffer(xi_text, dtype=np.uint8)
    x = np.where(u[np.flatnonzero(u == ord("1")) - 1] == ord("-"), -1, 1)
    return [texts[t] for t in p_texts], x.reshape(b, xi_len), v


def _checked_rows(lines, lo: int, xi_len: int, n_values: int, codes: dict):
    """(p positions in `codes`, xi, values) of the atom rows lo, lo+1, ...,
    one JSON text per line in any layout.  Every check runs row by row, in
    order, and raises the ParameterError naming the first faulty atom and
    field."""
    ps, xs, vs = [], [], []
    for a, line in enumerate(lines, lo):
        where = f"atom {a}"
        try:
            row = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParameterError(f"{where}: not valid JSON ({exc})") from exc
        if not isinstance(row, dict):
            raise ParameterError(f"{where}: must be a JSON object")
        for key in ("p", "xi", "v"):
            if key not in row:
                raise ParameterError(f"{where}.{key}: missing")
        p = row["p"]
        try:
            dyadic_decode(p, f"{where}.p")
        except OverflowError:
            pass  # an entry too large for a float: refused below with the block
        x = row["xi"]
        if not isinstance(x, list) or len(x) != xi_len or any(v not in (-1, 1) for v in x):
            raise ParameterError(f"{where}.xi: need {xi_len} entries from {{-1, +1}}")
        v = row["v"]
        if not isinstance(v, list) or len(v) != n_values:
            raise ParameterError(f"{where}.v: need {n_values} values")
        try:
            v = list(map(float, v))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ParameterError(f"{where}.v: {exc}") from exc
        if not all(map(math.isfinite, v)):
            raise ParameterError(f"{where}.v: values must be finite")
        ps.append(tuple(p))
        xs.append(x)
        vs.append(v)
    # every row passed on its own; the block conversion takes 64-bit
    # [numerator, k] entries only, and so does this path
    if max(map(max, ps)) >= 1 << 63:
        raise ParameterError(f"atoms {lo}-{a}.p: entries must fit in 64-bit integers")
    return [codes.setdefault(p, len(codes)) for p in ps], xs, vs


def _repeats(arr: np.ndarray) -> bool:
    """Whether a sample of the cells of a 2-D array shows its values
    repeating: at most half of the sampled bit patterns distinct."""
    n, width = arr.shape
    bits = arr.view(f"u{arr.itemsize}")
    k = np.arange(min(PAYLOAD_SAMPLE, arr.size))
    # rows spread evenly and columns cycling, so that no single column,
    # such as a constant start, fills the sample
    sample = np.sort(bits[k * n // k.size, k % width] if k.size else bits.ravel())
    # distinct values counted on the sorted sample: np.unique would import
    # numpy.ma on its first call in a process
    return (np.count_nonzero(sample[1:] != sample[:-1]) + 1) * 2 < sample.size


def _table(texts) -> np.ndarray:
    """The byte strings `texts` as the rows of a uint8 table, each padded
    with NULs to the longest; no text written here holds a NUL."""
    width = max(map(len, texts))
    return np.frombuffer(b"".join([t.ljust(width, b"\0") for t in texts]), np.uint8).reshape(-1, width)


def _cell_tables(texts) -> tuple:
    """Two tables of the cell `texts`: each text followed by its comma,
    for every column of a row but the last, and each text alone."""
    return _table([t + b"," for t in texts]), _table(texts)


def _gathered(tables, idx: np.ndarray) -> list:
    """Parts for `_joined`: the padded texts of the cells idx (rows x
    columns) from `tables` (`_cell_tables`), a row's cells joined by commas."""
    if idx.shape[1] == 0:
        return []
    sep, last = tables
    n = idx.shape[0]
    return [np.take(sep, idx[:, :-1], axis=0).reshape(n, -1), np.take(last, idx[:, -1], axis=0)]


def _constant(text: bytes, n: int) -> np.ndarray:
    """A part for `_joined`: the same text in each of n rows."""
    return np.broadcast_to(np.frombuffer(text, np.uint8), (n, len(text)))


def _joined(parts) -> bytes:
    """The text of rows made of `parts`, left to right: uint8 arrays with
    one row per text row, padded with NULs, which are dropped."""
    return np.concatenate(parts, axis=1).tobytes().translate(None, b"\0")


def _value_cells(arr: np.ndarray, cell: bytes) -> list:
    """`_gathered` parts of the float cells of arr, each `cell % value`.
    Each distinct bit pattern is formatted once, so -0.0 and 0.0 stay
    apart; bytes and str `%` run the same float-to-string conversion."""
    distinct, inverse = np.unique(arr.view(np.uint64), return_inverse=True)
    texts = [cell % x for x in distinct.view(np.float64).tolist()]
    return _gathered(_cell_tables(texts), inverse.reshape(arr.shape))


# the text of each int8 innovation, by its bit pattern as a uint8
_INNOVATIONS = _cell_tables([b"%d" % x for x in np.arange(256, dtype=np.uint8).view(np.int8).tolist()])


def _payload_blocks(arr: np.ndarray):
    """The text of a float array in blocks (`_blocks`): a line per row,
    its cells formatted as `fmt17` does and joined by commas, each line
    ended by "\n".  Cells that repeat (`_repeats`) are gathered; mostly
    distinct ones, where that costs more than it saves, take the per-row
    template."""
    n, width = arr.shape
    repeats = _repeats(arr)
    row = _cells("%.17g", width) + "\n"
    for lo, hi in _blocks(n, width):
        if repeats:
            yield _joined([*_value_cells(arr[lo:hi], b"%.17g"), _constant(b"\n", hi - lo)])
        else:
            yield "".join([row % tuple(r) for r in arr[lo:hi].tolist()]).encode()


def array_payload(arr: np.ndarray) -> dict:
    """Inline small arrays; summarize large ones behind a content hash:
    the sha256 of the payload text, its lines joined by "\n", which is
    fed block by block."""
    arr = np.asarray(arr, dtype=float)
    digest = hashlib.sha256()
    rows = []
    end = b""  # the line break before the next block
    for text in _payload_blocks(arr):
        digest.update(end)
        digest.update(memoryview(text)[:-1])
        end = b"\n"
        if arr.shape[0] <= INLINE_ATOM_LIMIT:
            rows += [line.split(",") for line in text[:-1].decode().split("\n")]
    out = {"shape": list(arr.shape), "sha256": digest.hexdigest()}
    if arr.shape[0] <= INLINE_ATOM_LIMIT:
        out["data"] = rows
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
    return [{k: _encode_scalar(v) for k, v in row.items()} for row in table]


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
    write_json(path, doc)


def read_report(path) -> dict:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ParameterError(f"cannot read report file: {exc}") from exc
    try:
        doc = json.loads(raw.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ParameterError(
            f"report: not valid UTF-8 (byte {exc.start} of the file: {exc.reason})"
        ) from exc
    except json.JSONDecodeError as exc:
        raise ParameterError(f"report: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ParameterError("report: must be a JSON object")
    if doc.get("format") != REPORT_FORMAT:
        raise ParameterError(f"report.format: expected {REPORT_FORMAT!r}")
    for key in ("source_name", "body"):
        if key not in doc:
            raise ParameterError(f"report.{key}: missing")
    if not isinstance(doc["source_name"], str):
        raise ParameterError("report.source_name: must be a string")
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
