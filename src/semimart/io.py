"""File formats: ensemble files (JSON lines) and report files (JSON).

An ensemble file is one header object plus one line per atom carrying an
exact dyadic probability, the +/-1 innovation row, and the path values
as 17-significant-digit decimal strings (bit-exact round trip for
float64).  A report file wraps a canonical body under a timestamp; the
body is byte-reproducible from the ensemble file and the configuration,
which is what `verify` exploits.

Rows are written and read in blocks of about BLOCK_CELLS cells.  The
writer gathers every block's text from NUL-padded tables of cell texts,
formatting each distinct value of a block once when its values repeat
and every cell in place otherwise.  Its float texts, and those of the
report's array digests, come from one vectorised kernel, `_fmt17_table`,
byte for byte what `fmt17` writes: it rounds |x| * 10**(16 - d) to 17
digits in double-double arithmetic (Dekker, 1971) and leaves to `fmt17`
the cells it cannot decide, near-ties and those out of its range, and
the cells of a call too small to repay its fixed cost.
The reader has two block paths.  A block whose text has exactly the
writer's layout is converted with one `np.loadtxt` call; any other block
goes through the checked row path, which decodes each row as JSON and
names the atom and the field of a fault.  Both paths give the same
arrays for every row the first takes.

Both deal shares of the blocks out through one helper, `_forked`,
round-robin to this process and a forked child per further CPU, never
more processes than blocks.  A child streams each of its shares back
through a pipe in length-prefixed frames, one per part as it is made,
ended by a marker.  The writer deals single blocks, and its child sends
each block's file text as soon as it is formatted, so it runs at most
one block ahead of this process.  The reader cuts the blocks into one
contiguous share per process, and its child parses its whole share,
then sends the bytes of the rows it parsed: p as [numerator, k] pairs,
xi and values.  The shares are taken in file order, so the file's bytes,
the arrays read and the first fault's message do not depend on the CPU
count.
"""

import errno
import functools
import hashlib
import io
import itertools
import json
import math
import os
import re
import reprlib
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
# the most bytes of a forked child's message held here at a time
PIECE = 1 << 20
# the frame lengths, which no part has, that end a forked child's
# message: whole, or at a fault
_END, _FAULT = (1 << 64) - 1, (1 << 64) - 2
# cells sampled to decide whether a block repeats its values
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


def _blocks(n: int, width: int):
    """Row ranges [lo, hi) of about BLOCK_CELLS cells (at least one row)."""
    step = max(1, BLOCK_CELLS // max(width, 1))
    return [(lo, min(lo + step, n)) for lo in range(0, n, step)]


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def open_output(path, mode: str = "w"):
    """``path`` opened for writing; an unwritable path is bad input."""
    try:
        return open(path, mode)
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
        or not all(type(v) is int for v in entry)
        or entry[0] < 1
        or entry[1] < 0
    ):
        raise ParameterError(f"{where}: probability must be [numerator, log2 denominator]")
    # a scaled power of two is exact wherever float64 holds the result
    return math.ldexp(entry[0], -entry[1])


@dataclass(frozen=True)
class EnsembleData:
    """Parsed ensemble file plus the hash of its raw bytes."""

    spec: GeneratorSpec
    probs: np.ndarray
    xi: np.ndarray | None
    values: np.ndarray
    sha256: str

    def to_source(self) -> Source:
        """The object `detect` consumes."""
        return Source(self.spec, self.probs, self.xi, self.values)


def write_ensemble(path, spec: GeneratorSpec, probs, xi, values) -> None:
    """Write an ensemble file: the header line, then one row per atom.

    Rows are formatted in blocks (`_blocks`), dealt out round-robin to
    this process and a forked child per further CPU, at most one per
    block (`_forked`), so that a child formats its next block while this
    process formats its own, and this process writes their text in
    order.  Every block is the same text wherever it is formatted, so the
    file's bytes do not depend on the CPU count."""
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
    # each row's text up to its first value
    heads = _table([b'{"p":[%d,%d],"v":[' % tuple(dyadic_encode(p)) for p in distinct])
    shares = [[span] for span in _blocks(n, values.shape[1] + xi.shape[1])]
    state = (heads, inverse, values, xi)
    with open_output(path, "wb") as fh:
        fh.write((_canonical(header) + "\n").encode())
        for _, pieces in _forked(lambda share: [_block_text(state, *share[0])], shares, _cpus(len(shares))):
            fh.writelines(pieces)


def _block_text(state, lo: int, hi: int) -> bytes:
    """The file text of atom rows lo..hi-1, in the key order and with the
    separators of `_canonical`, gathered whole from tables of cell texts."""
    heads, inverse, values, xi = state
    v, n = values[lo:hi], hi - lo
    return _joined([
        np.take(heads, inverse[lo:hi], axis=0),
        *_value_cells(v, b'"'),
        _constant(b'],"xi":[', n),
        *_gathered(_INNOVATIONS, xi[lo:hi].view(np.uint8)),
        _constant(b"]}\n", n),
    ])


def _cpus(tasks: int) -> int:
    """How many processes may share `tasks` tasks: one per CPU this process
    may run on, and at most one per task; one without
    `os.sched_getaffinity`."""
    if tasks < 2 or not hasattr(os, "sched_getaffinity"):
        return 1
    return min(len(os.sched_getaffinity(0)), tasks)


def _forked(fn, shares, parts: int):
    """Yield (share, pieces) for each share of row blocks in `shares`, in
    order: the pieces are the bytes of the parts that fn(share) yields.

    The shares are dealt out round-robin to `parts` processes: this one
    computes shares 0, parts, 2 * parts, ..., each when its pieces are
    taken, and a child forked for each k in 1..parts-1 computes shares k,
    k + parts, ...  The child sends each part through a pipe as it comes,
    as a frame: the part's length, then its bytes.  An _END length ends a
    share's message, and is sent at once, so that the child goes on to
    its next share while this process takes the message; a _FAULT length
    ends it where fn raised.  The frames are yielded in pieces of at most
    PIECE bytes.  A share whose child could not be forked, or has exited
    before sending its first length, is computed here in its turn, and so
    are the parts after a fault, so the first fault in share order raises
    here.  A child whose message stops before its end raises
    ChildProcessError.  Every child is reaped before this returns or
    raises."""
    # not imported at module level, where it measurably slowed `semimart
    # verify`'s argument parsing
    import signal

    def message(fh, length: bytes, share):
        def cut(what):
            return ChildProcessError(f"rows {share[0][0]}-{share[-1][1] - 1}: the child's message ended {what}")

        for frames in itertools.count():
            size = int.from_bytes(length, "little")
            if size == _END:
                return
            if size == _FAULT:
                yield from itertools.islice(fn(share), frames, None)
                return
            while size:
                piece = fh.read(min(size, PIECE))
                if not piece:
                    raise cut(f"{size} bytes short of a frame")
                size -= len(piece)
                yield piece
            length = fh.read(8)
            if len(length) < 8:
                raise cut("before its end")

    children = [None]  # (pid, read end of its pipe) of each process, or None
    try:
        for k in range(1, parts):
            children.append(_fork(fn, shares[k::parts]))
        for i, share in enumerate(shares):
            child = children[i % parts]
            length = child[1].read(8) if child else b""
            yield share, message(child[1], length, share) if len(length) == 8 else fn(share)
    finally:
        for pid, fh in filter(None, children):
            os.kill(pid, signal.SIGKILL)
            fh.close()
            os.waitpid(pid, 0)


def _fork(fn, shares):
    """(pid, read end of its pipe) of a child forked to send the parts of
    fn(share) for each of `shares` through the pipe in frames (`_forked`)
    and exit; None when no child could be forked."""
    try:
        r, w = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(r)
            os.close(w)
            raise
    except OSError:
        return None
    if pid:
        os.close(w)
        return pid, os.fdopen(r, "rb")
    try:
        with os.fdopen(w, "wb") as fh:
            for share in shares:
                try:
                    for part in fn(share):
                        fh.write(len(part).to_bytes(8, "little"))
                        fh.write(part)
                except Exception:
                    # the parent computes the rest of the share, and so
                    # raises this fault with its own traceback, in order
                    fh.write(_FAULT.to_bytes(8, "little"))
                    break
                fh.write(_END.to_bytes(8, "little"))
                fh.flush()
    finally:
        # the messages, whole or not, are all that this process reports
        os._exit(0)


def json_field(doc: dict, where: str, key: str, kind: type):
    """doc[key] when it has JSON type `kind` (a list: null or a list of
    ints), else a ParameterError naming where.key and a short repr of the
    value.  JSON true and false are no number, though Python counts them
    as ints; a float for an int meets int() first, keeping inf's message."""
    if key not in doc:
        raise ParameterError(f"{where}.{key}: missing")
    value = doc[key]
    items = value if kind is list and type(value) is list else []
    for x, k in [(value, kind)] + [(n, int) for n in items]:
        if k is int and type(x) is float:
            try:
                int(x)
            except (OverflowError, ValueError) as exc:
                raise ParameterError(f"{where}.{key}: {exc}") from exc
        if not (type(x) is k or (k is list and x is None)):
            raise ParameterError(f"{where}.{key}: expected {k.__name__}, got {reprlib.repr(x)}")
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
    if json_field(header, "header", "format", str) != ENSEMBLE_FORMAT:
        raise ParameterError(f"header.format: expected {ENSEMBLE_FORMAT!r}")
    kind = json_field(header, "header", "kind", str)
    if kind not in KINDS:
        raise ParameterError(f"header.kind: unknown kind {kind!r}")
    # each field's own message first; then what GeneratorSpec refuses
    f = {key: json_field(header, "header", key, t) for key, t in (
        ("level", int), ("scale", str), ("seed", int), ("mode", str), ("paths", int),
        ("hurst", str), ("mu", str), ("jump_size", str))}
    try:
        spec = GeneratorSpec(kind=kind, level=f["level"], seed=f["seed"], mode=f["mode"], paths=f["paths"],
                             **{key: float(f[key]) for key in ("scale", "hurst", "mu", "jump_size")})
    except (ParameterError, ValueError) as exc:
        raise ParameterError(f"header: {exc}") from exc
    n = json_field(header, "header", "atoms", int)
    rows = raw.count(b"\n", head_end, size)
    if rows != n:
        raise ParameterError(f"header.atoms: declares {n} atoms, file has {rows} rows")

    n_values = spec.n_steps + 1
    xi_len = 0 if kind == "deterministic_drift" else spec.n_steps
    out = p, xi, values = (np.empty((n, 2), dtype=np.int64), np.empty((n, xi_len), dtype=np.int8),
                           np.empty((n, n_values)))
    _parse_blocks(raw, head_end + 1, _blocks(n, n_values + xi_len), out)
    # numerator / 2**k as `dyadic_decode` gives it: the numerator rounded
    # to a float, then scaled
    probs = np.ldexp(p[:, 0].astype(float), -p[:, 1])
    # the distinct [numerator, k] rows, each first in a run of equal rows
    ordered = p[np.lexsort(p.T)]
    first = np.flatnonzero(np.r_[n > 0, (ordered[1:] != ordered[:-1]).any(1)])
    if not _sums_to_one(ordered[first].tolist(), np.diff(first, append=n).tolist()):
        raise ParameterError("p (sum): probabilities do not sum to 1 exactly")
    if not probs.all():
        a = int(np.argmin(probs))
        raise ParameterError(f"atom {a}.p: {p[a].tolist()} is below the least positive float64")
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


def _parse_blocks(raw: bytes, at: int, spans, out) -> None:
    """Parse the atom rows of `spans`, the row blocks from atom 0 on, whose
    first row starts at byte `at` of `raw`, into `out`: p as [numerator,
    k] rows, xi and values.

    The blocks are cut into contiguous shares, one per CPU and at most one
    per block; the first is parsed here and each later one by a forked
    child (`_forked`).  A share is parsed whole, into `out`, before its
    message is sent: the bytes of its p rows, then of its xi rows, then
    of its values rows.  The messages are taken in file order, a child's
    rows copied into `out` as they arrive, so the arrays are those of a
    one-process read."""
    xi_len, n_values = out[1].shape[1], out[2].shape[1]

    def rows(lo, hi):
        """The bytes of rows lo..hi-1 of each array of `out`, as views."""
        return [a[lo:hi].reshape(-1).view(np.uint8) for a in out]

    def parse(share):
        lo, hi = share[0][0], share[-1][1]
        start = at
        for _ in range(lo):
            start = raw.index(b"\n", start) + 1
        lines_in = io.BytesIO(raw)  # shares raw's buffer
        lines_in.seek(start)
        for a, b in share:
            # rows a..b-1, each ended by "\n" unless it ends the file
            block = b"".join(itertools.islice(lines_in, b - a))
            parsed = _parse_block(block, b - a, xi_len, n_values) or _checked_rows(
                block.decode().splitlines(), a, xi_len, n_values)
            for arr, part in zip(out, parsed):
                arr[a:b] = part
        yield from map(memoryview, rows(lo, hi))

    def merge(share, pieces):
        rest = b""
        # a share parsed here is copied onto itself
        for dest in rows(share[0][0], share[-1][1]):
            done = 0
            while done < dest.size:
                rest = rest or memoryview(next(pieces))
                k = min(len(rest), dest.size - done)
                dest[done:done + k] = rest[:k]
                done += k
                # an empty slice would still hold its whole piece
                rest = rest[k:] if k < len(rest) else b""

    parts = _cpus(len(spans))
    cuts = [k * len(spans) // parts for k in range(parts + 1)]
    shares = [spans[lo:hi] for lo, hi in zip(cuts, cuts[1:]) if lo < hi]
    for share, pieces in _forked(parse, shares, len(shares)):
        merge(share, pieces)


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


def _parse_block(block: bytes, b: int, xi_len: int, n_values: int):
    """(p as [numerator, k] rows, xi, values) of b atom rows whose text has
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
    texts = dict.fromkeys(p_texts)  # each distinct [numerator, k] text -> its position in `entries`
    entries = []
    for i, text in enumerate(texts):
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
        entries.append(entry)
        texts[text] = i
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
    return np.array(entries, dtype=np.int64)[[texts[t] for t in p_texts]], x.reshape(b, xi_len), v


def _checked_rows(lines, lo: int, xi_len: int, n_values: int):
    """(p as [numerator, k] rows, xi, values) of the atom rows lo, lo+1, ...,
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
        # True == 1 in Python, but JSON true is no innovation
        if not isinstance(x, list) or len(x) != xi_len or bool in map(type, x) or any(v not in (-1, 1) for v in x):
            raise ParameterError(f"{where}.xi: need {xi_len} entries from {{-1, +1}}")
        v = row["v"]
        if not isinstance(v, list) or len(v) != n_values:
            raise ParameterError(f"{where}.v: need {n_values} values")
        if bool in map(type, v):
            raise ParameterError(f"{where}.v: true and false are not values")
        try:
            v = list(map(float, v))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ParameterError(f"{where}.v: {exc}") from exc
        if not all(map(math.isfinite, v)):
            raise ParameterError(f"{where}.v: values must be finite")
        ps.append(p)
        xs.append(x)
        vs.append(v)
    # every row passed on its own; the block conversion takes 64-bit
    # [numerator, k] entries only, and so does this path
    if max(map(max, ps)) >= 1 << 63:
        raise ParameterError(f"atoms {lo}-{a}.p: entries must fit in 64-bit integers")
    return ps, xs, vs


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
    width = max(map(len, texts), default=0)
    return np.frombuffer(b"".join([t.ljust(width, b"\0") for t in texts]), np.uint8).reshape(len(texts), width)


def _cell_table(table: np.ndarray, quote: bytes = b"") -> np.ndarray:
    """The cell texts that are the rows of a NUL-padded uint8 table, each
    in `quote`s and followed by its comma."""
    n = table.shape[0]
    q = _constant(quote, n)
    return np.concatenate([q, table, q, _constant(b",", n)], axis=1)


def _gathered(cells: np.ndarray, idx: np.ndarray) -> list:
    """Parts for `_joined`: the padded texts of the cells idx (rows x
    columns) from `cells` (`_cell_table`), a row's cells joined by commas;
    the last cell of a row drops its comma."""
    if idx.shape[1] == 0:
        return []
    n = idx.shape[0]
    return [np.take(cells, idx[:, :-1], axis=0).reshape(n, -1), np.take(cells, idx[:, -1], axis=0)[:, :-1]]


def _constant(text: bytes, n: int) -> np.ndarray:
    """A part for `_joined`: the same text in each of n rows."""
    return np.broadcast_to(np.frombuffer(text, np.uint8), (n, len(text)))


def _joined(parts) -> bytes:
    """The text of rows made of `parts`, left to right: uint8 arrays with
    one row per text row, padded with NULs, which are dropped."""
    return np.concatenate(parts, axis=1).tobytes().translate(None, b"\0")


def _value_cells(arr: np.ndarray, quote: bytes) -> list:
    """Parts for `_joined`: the float cells of arr, each as `fmt17` writes
    it, in `quote`s, a row's cells joined by commas.  When they repeat
    (`_repeats`), each distinct bit pattern is formatted once and gathered
    (`_gathered`), so -0.0 and 0.0 stay apart; otherwise every cell is
    formatted in place.  Either way the text is the same."""
    if _repeats(arr):
        distinct, idx = np.unique(arr.view(np.uint64), return_inverse=True)
        return _gathered(_cell_table(_fmt17_table(distinct.view(np.float64)), quote), idx.reshape(arr.shape))
    if not arr.size:  # rows without cells
        return []
    cells = _cell_table(_fmt17_table(arr.ravel()), quote).reshape(arr.shape[0], -1)
    cells[:, -1] = 0  # the last cell of a row drops its comma
    return [cells]


# the text of each int8 innovation, by its bit pattern as a uint8
_INNOVATIONS = _cell_table(_table([b"%d" % x for x in np.arange(256, dtype=np.uint8).view(np.int8).tolist()]))

# `_fmt17_table` formats the cells of these magnitudes itself, trying the
# decades d = floor(log10|x|) in _DECADES
_FAST = (1e-280, 1e280)
_DECADES = np.arange(-281, 282)
# the band around a half-integer, far wider than the error of V (under
# 2**-47), in which it leaves the rounding to `fmt17`
_TIE = 2.0 ** -20
# below this many cells `fmt17` formats them all: the vectorised path
# costs about 100 us a call whatever its size, `fmt17` about 1 us a cell
_FEW = 128
# the divisors that cut the 16 digits after the lead one into groups of 4
_POW4 = np.array([10 ** 16, 10 ** 12, 10 ** 8, 10 ** 4, 1])[:, None]


def _halves(a):
    """Dekker's split of a into a high and a low half of at most 26
    significant bits each, high + low == a exactly."""
    c = 134217729.0 * a  # 2**27 + 1
    high = c - (c - a)
    return high, a - high


@functools.cache
def _fmt17_tables() -> tuple:
    """The constant tables of `_fmt17_table`, built at its first call.

    pow10: for each decade d, 10**(16 - d) as the double-double hi + lo,
    each part correctly rounded from exact integers, with the halves of hi.
    groups: the 4 digits of 0..9999 as little-endian uint32 words, then
    the same with their trailing zeros dropped, then an empty word.  And per decade, as
    `%.17g` lays the cell out: the text before the lead digit,
    right-aligned in the first 6 bytes of a word, for nonnegative then
    negative cells; the word of text after the digits; the digit after
    which the point goes (17: none); the widths of the two texts."""
    his, los = [], []
    for k in (16 - _DECADES).tolist():
        if k >= 0:
            his.append(float(10 ** k))
            los.append(float(10 ** k - int(his[-1])))
        else:
            m = 10 ** -k
            his.append(1 / m)
            num, den = his[-1].as_integer_ratio()
            los.append((den - num * m) / (den * m))
    hi = np.array(his)
    pow10 = np.array([hi, *_halves(hi), los])
    digits = (np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10 + 48).astype(np.uint8)
    trailing = np.logical_and.accumulate(digits[:, ::-1] == 48, axis=1)[:, ::-1]
    groups = np.concatenate([digits, np.where(trailing, 0, digits), np.zeros((1, 4))]).astype(np.uint8)
    decades = _DECADES.tolist()
    heads = [b"0." + b"0" * (-d - 1) if -4 <= d < 0 else b"" for d in decades]
    tails = [b"" if -4 <= d < 17 else b"e%+03d" % d for d in decades]
    points = [17 if -4 <= d < 0 else d if 0 <= d < 17 else 0 for d in decades]
    words = [h.rjust(6, b"\0") for h in heads] + [(b"-" + h).rjust(6, b"\0") for h in heads] + tails
    words = np.frombuffer(b"".join([w.ljust(8, b"\0") for w in words]), "<u8")
    widths = np.array([[len(h) + 1, len(t)] for h, t in zip(heads, tails)])
    tables = pow10, groups.view("<u4").ravel(), words[:-len(tails)], words[-len(tails):], np.array(points), widths
    for table in tables:
        table.setflags(write=False)  # shared by every call
    return tables


def _decades(a: np.ndarray) -> np.ndarray:
    """floor(log10(a)) of positive cells, as an estimate: near a power of
    ten `log10` may round to the next integer, which `_fmt17_table` mends."""
    return np.floor(np.log10(a)).astype(np.int64)


def _scaled(a: np.ndarray, d: np.ndarray) -> tuple:
    """V = a * 10**(16 - d) as (p, t): p the rounded product a * hi, and t
    its exact error by Dekker's product plus a * lo."""
    hi, high, low, lo = np.take(_fmt17_tables()[0], d - _DECADES[0], axis=1)
    p = a * hi
    ah, al = _halves(a)
    return p, ((ah * high - p) + ah * low + al * high) + al * low + a * lo


def _off_decade(p: np.ndarray, t: np.ndarray) -> np.ndarray:
    """+1 where V = p + t >= 1e17, -1 where V < 1e16, else 0.  Near either
    bound p minus it is exact and |t| is below the spacing of p, so the
    signs are those of V minus the bound."""
    return ((p - 1e17) + t >= 0).view(np.int8) - ((p - 1e16) + t < 0).view(np.int8)


def _fmt17_table(x: np.ndarray) -> np.ndarray:
    """The texts `fmt17` writes for the 1-D float64 cells x, as the rows of
    a uint8 table padded with NULs, which may sit anywhere in a row.

    The fast path takes +-0 and the cells with 1e-280 <= |x| <= 1e280.
    From an estimate d of the decade of |x| it forms V = |x| * 10**(16 - d)
    as p + t, from a double-double power of ten and Dekker's exact
    product.  Where V falls outside [1e16, 1e17), d moves by one and V is
    formed again, so the text does not hang on the last bit of `log10`.
    The 17 digits N = p + rint(t) (10**17 carries into the next decade)
    are gathered from a table of 4-digit groups, trailing zeros dropped,
    and laid out as `%g` does, with a point or an exponent.  Every other
    cell goes to `fmt17`: one outside that range or not finite, one whose
    decade is still off, and one whose t lies within _TIE of a
    half-integer, ties such as 1234567890123456.25 included.  So do all
    the cells of a call with fewer than _FEW of them."""
    if x.size < _FEW:
        return _table([fmt17(v).encode() for v in x.tolist()])
    pow10, groups, heads, tails, points, widths = _fmt17_tables()
    zero = x == 0
    a = np.abs(x)
    fast = (a >= _FAST[0]) & (a <= _FAST[1])
    a = np.where(fast, a, 1.0)  # zeros and cells left to fmt17 read as 1
    d = np.clip(_decades(a), _DECADES[0], _DECADES[-1])
    p, t = _scaled(a, d)
    shift = _off_decade(p, t)
    moved = np.flatnonzero(shift)
    if moved.size:
        d[moved] += shift[moved]
        p[moved], t[moved] = _scaled(a[moved], d[moved])
        fast[moved[_off_decade(p[moved], t[moved]) != 0]] = False
    r = np.rint(t)
    slow = np.flatnonzero(~(fast | zero) | (np.abs(t - r) > 0.5 - _TIE))
    n = p.astype(np.int64) + r.astype(np.int64)
    carry = n == 10 ** 17
    n[carry] = 10 ** 16
    d += carry
    lead = n // 10 ** 16
    rest = n - lead * 10 ** 16
    # q[j]: the first j groups of rest; low[j]: its digits after them.  A
    # group after the last nonzero one is empty, that one drops its zeros
    q = rest // _POW4
    low = rest - q * _POW4
    empty = (low == 0) * 10000
    # a row: the head word, the four groups, the tail word, little-endian
    # whatever the host, so that byte k of a word is bits 8k..8k+7.  The
    # head word holds its text in bytes 0-5, the lead digit in byte 6
    # and, when the point follows it and digits follow the point, the
    # point in 7
    out = np.empty((x.size, 8), "<u4")
    out[:, 2:6] = np.take(groups, q[1:] - q[:-1] * 10 ** 4 + empty[:-1] + empty[1:]).T
    text, words = out.view(np.uint8), out.view("<u8")
    di = d - _DECADES[0]
    point = np.take(points, di)
    lead_point = (48 + lead * ~zero) << 48 | ((point == 0) & (rest != 0)) * (46 << 56)
    words[:, 0] = np.take(heads, di + _DECADES.size * np.signbit(x)) | lead_point.astype(np.uint64)
    words[:, 3] = np.take(tails, di)
    present = np.flatnonzero(np.bincount(di, minlength=_DECADES.size))
    # a cell with i > 0 integer digits after the lead one moves them left
    # over the point's byte, zeros kept, and takes the point after them
    for i in sorted(set(points[present].tolist()) - {0, 17}):
        rows = np.flatnonzero(point == i)
        text[rows, 7:7 + i] = np.maximum(text[rows, 8:8 + i], 48)
        text[rows, 7 + i] = (rest[rows] % 10 ** (16 - i) != 0) * 46
    # the bytes that some cell fills: the head text, the lead digit and a
    # point, then the groups up to the tail's end, or else up to the last
    # nonempty group or moved integer digit
    head, tail = widths[present].max(0, initial=0)
    moves = points[present]
    table = text[:, 6 - head:24 + tail if tail else 8 + max(4 * np.count_nonzero(low[:-1].any(1)),
                                                             moves[moves < 17].max(initial=0))]
    if slow.size:
        texts = _table([fmt17(v).encode() for v in x[slow].tolist()])
        width = max(table.shape[1], texts.shape[1])
        table = np.pad(table, ((0, 0), (0, width - table.shape[1])))
        table[slow] = np.pad(texts, ((0, 0), (0, width - texts.shape[1])))
    return table


def _payload_blocks(arr: np.ndarray):
    """The text of a float array in blocks (`_blocks`): a line per row,
    its cells formatted as `fmt17` does and joined by commas, each line
    ended by "\n"."""
    for lo, hi in _blocks(*arr.shape):
        yield _joined([*_value_cells(arr[lo:hi], b""), _constant(b"\n", hi - lo)])


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
    with open_output(path) as fh:
        fh.write(_canonical(doc) + "\n")


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
    json_field(doc, "report", "source_name", str)
    json_field(doc, "report", "body", dict)
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
