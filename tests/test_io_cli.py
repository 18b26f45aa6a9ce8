"""Tests for the file formats and the command-line entry points."""

import collections
import hashlib
import io
import json
from fractions import Fraction
import multiprocessing
import os
import random
import re
import shlex
import signal
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import semimart.cli as cli
import semimart.io as sio
from semimart.cli import main
from semimart.errors import ParameterError
from semimart.generators import GeneratorSpec, generate
from semimart.io import (
    array_payload,
    dyadic_decode,
    dyadic_encode,
    first_mismatch,
    fmt17,
    index_payload,
    read_ensemble,
    read_report,
    report_body,
    write_ensemble,
    write_report,
)
from semimart.pipeline import DetectConfig, detect
from helpers import ensemble_rows_text, payload_lines

TOL = 1e-12


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def reference_rows(probs, xi, values) -> list:
    """Atom rows as the per-value writer makes them: one format(v, ".17g")
    per value and one canonical json.dumps per row."""
    return [
        canonical({
            "p": dyadic_encode(probs[a]),
            "xi": [] if xi is None else [int(v) for v in xi[a]],
            "v": [format(float(v), ".17g") for v in values[a]],
        })
        for a in range(probs.size)
    ]


def reference_payload(arr) -> dict:
    """array_payload as the per-value encoder makes it."""
    rows = [[format(float(v), ".17g") for v in row] for row in arr]
    out = {
        "shape": list(arr.shape),
        "sha256": hashlib.sha256("\n".join(",".join(r) for r in rows).encode()).hexdigest(),
    }
    if arr.shape[0] <= 1024:
        out["data"] = rows
    else:
        out.update({k: format(float(f(arr)), ".17g") for k, f in (("min", np.min), ("max", np.max), ("mean", np.mean))})
    return out


def random_floats(rng, shape):
    """Finite float64s from uniform random bit patterns (every exponent,
    subnormals included), plus -0.0, +0.0, the subnormal extremes, and
    1e16 and 1e17 planted."""
    bits = rng.integers(0, 2**64, size=shape, dtype=np.uint64, endpoint=False)
    x = bits.view(np.float64).copy()
    x[~np.isfinite(x)] = -0.0
    special = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e16, 1e17, -1e17, 1 / 3]
    x.flat[rng.choice(x.size, len(special), replace=False)] = special
    return x


def few_floats(rng, shape):
    """Cells drawn from eight bit patterns: -0.0 beside 0.0, repeated
    subnormals, and values whose shortest repr is not 17 digits."""
    pool = np.array([-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1 / 3, -1e17, 0.1])
    return rng.choice(pool, shape)


# payload inputs by name: (rng, rows) -> a (rows, 17) float array
PAYLOAD_INPUTS = {
    "random": lambda rng, n: random_floats(rng, (n, 17)),
    "random-strided": lambda rng, n: random_floats(rng, (n, 34))[:, ::2],
    "few": lambda rng, n: few_floats(rng, (n, 17)),
    "few-strided": lambda rng, n: few_floats(rng, (n, 34))[:, ::2],
    "few-fortran": lambda rng, n: np.asfortranarray(few_floats(rng, (n, 17))),
}


def write_spec(path, spec):
    """Generate `spec` and serialize it to `path`; returns the arrays."""
    src = generate(spec)
    write_ensemble(path, spec, src.probs, src.xi, src.values)
    return src.probs, src.xi, src.values


def walk_file(tmp_path, name="walk.jsonl", level=1, seed=7):
    path = str(tmp_path / name)
    spec = GeneratorSpec(kind="rademacher_bm", level=level, seed=seed)
    write_spec(path, spec)
    return path


class TestFmt17:
    def test_round_trips_exactly(self):
        rng = np.random.default_rng(42)
        xs = np.concatenate(
            [
                rng.standard_normal(200),
                rng.standard_normal(50) * 1e-12,
                rng.standard_normal(50) * 1e12,
                np.array([0.0, 1.0, -1.0, 1.0 / 3.0, 2.0**-52]),
            ]
        )
        for x in xs:
            assert float(fmt17(x)) == x

    def test_short_values_stay_short(self):
        assert fmt17(0.5) == "0.5"
        assert fmt17(0.0) == "0"


class TestDyadicCodec:
    def test_encode_known_values(self):
        assert dyadic_encode(0.25) == [1, 2]
        assert dyadic_encode(0.375) == [3, 3]
        assert dyadic_encode(1.0) == [1, 0]

    def test_decode_inverts_encode(self):
        for p in (0.5, 0.25, 0.375, 2.0**-20, 1.0):
            assert dyadic_decode(dyadic_encode(p), "p") == p

    def test_non_dyadic_rejected(self):
        with pytest.raises(ParameterError):
            dyadic_encode(Fraction(1, 3))

    def test_every_float_is_dyadic(self):
        entry = dyadic_encode(1.0 / 3.0)
        assert dyadic_decode(entry, "p") == 1.0 / 3.0

    def test_a_large_numerator_over_a_large_power_of_two_decodes(self):
        """2**62 / 2**1100 is 2**-1038, which float64 holds, though
        2**-1100 alone is below its least positive value."""
        assert dyadic_decode([2**62, 1100], "p") > 0
        assert dyadic_decode([2**62, 1100], "p") == 2.0**-1038

    @pytest.mark.parametrize(
        "entry", [[1], [1.0, 2], [0, 2], [1, -1], "1/2", [1, 2, 3]]
    )
    def test_malformed_entries_rejected(self, entry):
        with pytest.raises(ParameterError, match="atom 3.p"):
            dyadic_decode(entry, "atom 3.p")


class TestEnsembleRoundTrip:
    @pytest.mark.parametrize(
        "spec",
        [
            GeneratorSpec(kind="rademacher_bm", level=2, seed=5),
            GeneratorSpec(kind="rl_fractional", level=3, hurst=0.75, seed=9),
            GeneratorSpec(kind="jump", level=2, jump_size=2.5, seed=1),
            GeneratorSpec(kind="deterministic_drift", level=2, mu=0.5),
            GeneratorSpec(
                kind="rl_fractional",
                level=3,
                hurst=0.75,
                mode="ensemble",
                paths=8,
                seed=13,
            ),
        ],
        ids=["rademacher_bm", "rl", "jump", "drift", "rl-ensemble"],
    )
    def test_bit_exact_round_trip(self, tmp_path, spec):
        path = str(tmp_path / "proc.jsonl")
        probs, xi, values = write_spec(path, spec)
        data = read_ensemble(path)
        assert data.spec == spec
        assert np.array_equal(data.probs, probs)
        assert np.array_equal(data.values, values)
        if xi is None:
            assert data.xi is None
        else:
            assert np.array_equal(data.xi, np.asarray(xi))
        with open(path, "rb") as fh:
            assert data.sha256 == hashlib.sha256(fh.read()).hexdigest()

    def test_arrays_are_handed_over_read_only(self, tmp_path):
        """The source's process and space share the arrays the reader
        built instead of copying them."""
        path = str(tmp_path / "ens.jsonl")
        write_spec(path, GeneratorSpec(kind="rl_fractional", level=3, hurst=0.75,
                                       mode="ensemble", paths=16, seed=3))
        data = read_ensemble(path)
        assert not data.values.flags.writeable and not data.xi.flags.writeable
        src = data.to_source()
        assert np.shares_memory(data.values, src.process.values)
        assert np.shares_memory(data.xi, src.xi)

    def test_source_rebuilds_the_space(self, tmp_path):
        path = walk_file(tmp_path, level=2)
        data = read_ensemble(path)
        src, ref = data.to_source(), generate(data.spec)
        space, S = src.space, src.process
        ref_space, ref_S = ref.space, ref.process
        assert np.array_equal(S.values, ref_S.values)
        for row, ref_row in zip(space.labels, ref_space.labels):
            pairs = set(zip(row.tolist(), ref_row.tolist()))
            assert len(pairs) == len(set(row.tolist())) == len(set(ref_row.tolist()))


class TestEnsembleErrors:
    def lines(self, tmp_path):
        path = walk_file(tmp_path)
        with open(path) as fh:
            return path, fh.read().splitlines()

    def rewrite(self, path, lines):
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")

    def test_empty_file(self, tmp_path):
        path = str(tmp_path / "empty.jsonl")
        open(path, "w").close()
        with pytest.raises(ParameterError, match="header"):
            read_ensemble(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParameterError, match="cannot read"):
            read_ensemble(str(tmp_path / "nope.jsonl"))

    def test_header_not_json(self, tmp_path):
        path, lines = self.lines(tmp_path)
        lines[0] = "{not json"
        self.rewrite(path, lines)
        with pytest.raises(ParameterError, match="header"):
            read_ensemble(path)

    def test_header_wrong_format(self, tmp_path):
        path, lines = self.lines(tmp_path)
        header = json.loads(lines[0])
        header["format"] = "something-else"
        lines[0] = json.dumps(header)
        self.rewrite(path, lines)
        with pytest.raises(ParameterError, match="header.format"):
            read_ensemble(path)

    def test_header_missing_field(self, tmp_path):
        path, lines = self.lines(tmp_path)
        header = json.loads(lines[0])
        del header["level"]
        lines[0] = json.dumps(header)
        self.rewrite(path, lines)
        with pytest.raises(ParameterError, match="header.level: missing"):
            read_ensemble(path)

    def test_header_unknown_kind(self, tmp_path):
        path, lines = self.lines(tmp_path)
        header = json.loads(lines[0])
        header["kind"] = "levy"
        lines[0] = json.dumps(header)
        self.rewrite(path, lines)
        with pytest.raises(ParameterError, match="header.kind"):
            read_ensemble(path)

    def test_header_declaring_too_many_paths(self, tmp_path):
        path, lines = self.lines(tmp_path)
        header = json.loads(lines[0])
        header.update(mode="ensemble", paths=1 << 30)
        lines[0] = json.dumps(header)
        self.rewrite(path, lines)
        with pytest.raises(ParameterError, match="header: paths"):
            read_ensemble(path)

    @pytest.mark.parametrize("seed", [-1, -(2**70)])
    def test_header_with_a_negative_seed(self, tmp_path, capsys, seed):
        path, lines = self.lines(tmp_path)
        header = json.loads(lines[0])
        header["seed"] = seed
        lines[0] = json.dumps(header)
        self.rewrite(path, lines)
        with pytest.raises(ParameterError, match="^header: seed must be a non-negative integer"):
            read_ensemble(path)
        assert main(["detect", path, "--out", str(tmp_path / "r.json")]) == 2
        assert "header: seed must be a non-negative integer" in capsys.readouterr().err

    def test_atom_count_mismatch(self, tmp_path):
        path, lines = self.lines(tmp_path)
        self.rewrite(path, lines[:-1])
        with pytest.raises(ParameterError, match="header.atoms"):
            read_ensemble(path)

    def test_bad_probability_entry(self, tmp_path):
        path, lines = self.lines(tmp_path)
        row = json.loads(lines[1])
        row["p"] = [1, -2]
        lines[1] = json.dumps(row)
        self.rewrite(path, lines)
        with pytest.raises(ParameterError, match=r"atom 0\.p"):
            read_ensemble(path)

    def test_bad_innovation_row(self, tmp_path):
        path, lines = self.lines(tmp_path)
        row = json.loads(lines[2])
        row["xi"] = [1, 0]
        lines[2] = json.dumps(row)
        self.rewrite(path, lines)
        with pytest.raises(ParameterError, match=r"atom 1\.xi"):
            read_ensemble(path)

    def test_short_value_row(self, tmp_path):
        path, lines = self.lines(tmp_path)
        row = json.loads(lines[3])
        row["v"] = row["v"][:-1]
        lines[3] = json.dumps(row)
        self.rewrite(path, lines)
        with pytest.raises(ParameterError, match=r"atom 2\.v"):
            read_ensemble(path)

    def test_non_finite_value(self, tmp_path):
        path, lines = self.lines(tmp_path)
        row = json.loads(lines[3])
        row["v"][1] = "inf"
        lines[3] = json.dumps(row)
        self.rewrite(path, lines)
        with pytest.raises(ParameterError, match="finite"):
            read_ensemble(path)

    @pytest.mark.parametrize("key", ["level", "seed", "paths", "atoms"])
    def test_header_true_is_not_a_number(self, tmp_path, capsys, key):
        """JSON true is no header number, although Python counts it as the
        int 1: a one-atom level-1 file whose field reads 1 is refused
        with true in its place, and detect exits 2."""
        path = str(tmp_path / "drift.jsonl")
        write_spec(path, GeneratorSpec(kind="deterministic_drift", level=1, mu=0.5))
        lines = Path(path).read_text().splitlines()
        header = json.loads(lines[0])
        header[key] = True
        lines[0] = json.dumps(header)
        self.rewrite(path, lines)
        out = tmp_path / "out.json"
        assert main(["detect", path, "--out", str(out)]) == 2
        assert f"header.{key}: expected int, got True" in capsys.readouterr().err
        assert not out.exists()

    def test_probabilities_must_sum_to_one(self, tmp_path):
        path, lines = self.lines(tmp_path)
        row = json.loads(lines[1])
        row["p"] = [1, 3]
        lines[1] = json.dumps(row)
        self.rewrite(path, lines)
        with pytest.raises(ParameterError, match=r"p \(sum\)"):
            read_ensemble(path)


    @pytest.mark.parametrize("k", [10**8, 10**10, 2**63 - 1])
    def test_an_unreachable_exponent_is_refused_without_allocating(self, tmp_path, capsys, k):
        """A row whose p is [1, k] with a huge k cannot sum to 1 with the
        others; the check says so without building a k-bit integer."""
        path, lines = self.lines(tmp_path)
        row = json.loads(lines[1])
        row["p"] = [1, k]
        lines[1] = json.dumps(row)
        self.rewrite(path, lines)
        tracemalloc.start()
        try:
            code = main(["detect", path, "--out", str(tmp_path / "out.json")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert capsys.readouterr().err.startswith("parameter error: p (sum): ")
        assert peak < 1 << 20

    def test_a_probability_below_float64_exits_2(self, tmp_path, capsys):
        """Entries [1, 1], [1, 2], ..., [1, 2047], [1, 2047] sum to 1
        exactly, but from [1, 1075] on float64 cannot hold them: detect
        names the first such atom and exits 2."""
        path = str(tmp_path / "tiny.jsonl")
        write_spec(path, GeneratorSpec(kind="rl_fractional", level=1, mode="ensemble", paths=2048, hurst=0.75))
        header, *rows = Path(path).read_text().splitlines()
        for a, text in enumerate(rows):
            row = json.loads(text)
            row["p"] = [1, min(a + 1, 2047)]
            rows[a] = json.dumps(row, separators=(",", ":"))
        self.rewrite(path, [header, *rows])
        assert main(["detect", path, "--out", str(tmp_path / "out.json")]) == 2
        assert capsys.readouterr().err.startswith("parameter error: atom 1074.p: [1, 1075] ")

    def test_sum_check_agrees_with_exact_fractions(self):
        """Random dyadic partitions of 1, some entries unreduced and half of
        them with one exponent moved, against an exact Fraction sum."""
        rng = random.Random(4)
        verdicts = []
        for _ in range(2000):
            K = rng.randrange(0, 70)
            cuts = sorted({rng.randrange(1, 1 << K) for _ in range(rng.randrange(0, 5) if K else 0)})
            pieces = [b - a for a, b in zip([0] + cuts, cuts + [1 << K])]
            entries = []
            for a in pieces:
                zeros = (a & -a).bit_length() - 1
                j = rng.randrange(0, zeros + 3)  # reduced, exact, or unreduced past K
                entries.append((a >> zeros << j, K - zeros + j))
            if rng.random() < 0.5:
                i = rng.randrange(len(entries))
                entries[i] = (entries[i][0], entries[i][1] + rng.choice([-1, 1]))
            entries = [(num, k) for num, k in entries if k >= 0]
            counter = collections.Counter(entries)
            exact = sum(Fraction(c * num, 1 << k) for (num, k), c in counter.items()) == 1
            verdicts.append(exact)
            assert sio._sums_to_one(list(counter), list(counter.values())) == exact
        assert 0.3 < np.mean(verdicts) < 0.7


# (name, edit of one atom's row, message after "atom <a>"); each edit is
# applied to atom 0 and to an atom inside the last block of rows
MALFORMED_ROWS = [
    ("not-json", lambda row: "{not json", r": not valid JSON"),
    ("not-object", lambda row: "[1, 2]", r": must be a JSON object"),
    ("p-missing", lambda row: {k: v for k, v in row.items() if k != "p"}, r"\.p: missing"),
    ("v-missing", lambda row: {k: v for k, v in row.items() if k != "v"}, r"\.v: missing"),
    ("p-negative-k", lambda row: {**row, "p": [1, -2]}, r"\.p: probability must be"),
    ("p-float", lambda row: {**row, "p": [float(row["p"][0]), row["p"][1]]}, r"\.p: probability must be"),
    ("p-nested", lambda row: {**row, "p": [row["p"], 1]}, r"\.p: probability must be"),
    ("p-true", lambda row: {**row, "p": [True, row["p"][1]]}, r"\.p: probability must be"),
    ("xi-zero", lambda row: {**row, "xi": [0] + row["xi"][1:]}, r"\.xi: need 4 entries"),
    ("xi-short", lambda row: {**row, "xi": row["xi"][:-1]}, r"\.xi: need 4 entries"),
    ("xi-string", lambda row: {**row, "xi": ["1"] + row["xi"][1:]}, r"\.xi: need 4 entries"),
    ("xi-nested", lambda row: {**row, "xi": [[v] for v in row["xi"]]}, r"\.xi: need 4 entries"),
    ("xi-true", lambda row: {**row, "xi": [True] + row["xi"][1:]}, r"\.xi: need 4 entries"),
    ("v-short", lambda row: {**row, "v": row["v"][:-1]}, r"\.v: need 5 values"),
    ("v-inf", lambda row: {**row, "v": row["v"][:1] + ["inf"] + row["v"][2:]}, r"\.v: values must be finite"),
    ("v-overflow", lambda row: {**row, "v": row["v"][:1] + ["1e400"] + row["v"][2:]}, r"\.v: values must be finite"),
    ("v-null", lambda row: {**row, "v": row["v"][:1] + [None] + row["v"][2:]},
     r"\.v: float\(\) argument must be a string or a real number, not 'NoneType'"),
    ("v-hex", lambda row: {**row, "v": row["v"][:1] + ["0x10"] + row["v"][2:]},
     r"\.v: could not convert string to float: '0x10'"),
    ("v-nested", lambda row: {**row, "v": row["v"][:1] + [["1"]] + row["v"][2:]},
     r"\.v: float\(\) argument must be a string or a real number, not 'list'"),
    ("v-huge-int", lambda row: {**row, "v": row["v"][:1] + [10**400] + row["v"][2:]},
     r"\.v: int too large to convert to float"),
    ("v-true", lambda row: {**row, "v": row["v"][:1] + [True] + row["v"][2:]},
     r"\.v: true and false are not values"),
]


# (name, edit of one atom's row text in the writer's compact layout,
# message after "atom <a>"): faults that only that layout can carry
MALFORMED_TEXTS = [
    ("xi-plus", lambda line: re.sub(r'"xi":\[-?1', '"xi":[+1', line), r": not valid JSON"),
    ("xi-leading-zero", lambda line: re.sub(r'"xi":\[-?1', '"xi":[01', line), r": not valid JSON"),
    ("xi-trailing-dot", lambda line: re.sub(r'"xi":\[-?1', '"xi":[1.', line), r": not valid JSON"),
    ("p-leading-zero", lambda line: line.replace('"p":[', '"p":[0', 1), r": not valid JSON"),
    ("p-exponent", lambda line: re.sub(r'"p":\[(\d+)', r'"p":[\1e0', line), r"\.p: probability must be"),
    ("v-empty", lambda line: re.sub(r'"v":\["[^"]*"', '"v":[""', line), r"\.v: could not convert string to float: ''"),
    ("blank-line", lambda line: "", r": not valid JSON"),
]

# (name, edit of one atom's row text): rows outside the writer's layout
# that read as the unedited file does; every row ends in an innovation
# of 1 or -1 and starts at the value 0
ACCEPTED_TEXTS = [
    ("xi-float", lambda line: line[:-2] + ".0]}"),
    ("xi-exponent", lambda line: line[:-2] + "e0]}"),
    ("v-underscore", lambda line: line.replace('"v":["0"', '"v":["0_0"')),
    ("v-arabic-zero", lambda line: line.replace('"v":["0"', '"v":["\u0660"')),
    ("v-escape", lambda line: line.replace('"v":["0"', '"v":["\\u0030"')),
    ("v-plus", lambda line: line.replace('"v":["0"', '"v":["+0"')),
    ("v-unquoted", lambda line: line.replace('"v":["0"', '"v":[0')),
]


def same_arrays(a, b) -> bool:
    return a.probs.tobytes() == b.probs.tobytes() and a.xi.tobytes() == b.xi.tobytes() and (
        a.values.tobytes() == b.values.tobytes()
    )


class TestMalformedRowsInBlocks:
    """A level-2 walk has 16 atoms of 9 cells; blocks of 4 rows put atom 14
    inside the last block, two rows past its start.  Edits are written
    back with json.dumps' default separators, which leave the writer's
    layout, and again with compact ones, which keep it outside the fault,
    so that both block readers meet each fault."""

    def read_with(self, tmp_path, monkeypatch, edit, atom, separators=None, text_edit=None):
        monkeypatch.setattr(sio, "BLOCK_CELLS", 4 * 9)
        path = walk_file(tmp_path, level=2)
        with open(path) as fh:
            lines = fh.read().splitlines()
        if text_edit is not None:
            lines[atom + 1] = text_edit(lines[atom + 1])
        else:
            row = edit(json.loads(lines[atom + 1]))
            lines[atom + 1] = row if isinstance(row, str) else json.dumps(row, separators=separators)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        return read_ensemble(path)

    @pytest.mark.parametrize("atom", [0, 14])
    @pytest.mark.parametrize("edit, message", [case[1:] for case in MALFORMED_ROWS],
                             ids=[case[0] for case in MALFORMED_ROWS])
    def test_compact_row_error_names_the_atom(self, tmp_path, monkeypatch, edit, message, atom):
        with pytest.raises(ParameterError, match=rf"^atom {atom}{message}"):
            self.read_with(tmp_path, monkeypatch, edit, atom, separators=(",", ":"))

    @pytest.mark.parametrize("atom", [0, 14])
    @pytest.mark.parametrize("text_edit, message", [case[1:] for case in MALFORMED_TEXTS],
                             ids=[case[0] for case in MALFORMED_TEXTS])
    def test_compact_text_error_names_the_atom(self, tmp_path, monkeypatch, text_edit, message, atom):
        with pytest.raises(ParameterError, match=rf"^atom {atom}{message}"):
            self.read_with(tmp_path, monkeypatch, None, atom, text_edit=text_edit)

    @pytest.mark.parametrize("atom", [0, 14])
    @pytest.mark.parametrize("text_edit", [case[1] for case in ACCEPTED_TEXTS],
                             ids=[case[0] for case in ACCEPTED_TEXTS])
    def test_compact_text_outside_the_layout_accepted(self, tmp_path, monkeypatch, text_edit, atom):
        data = self.read_with(tmp_path, monkeypatch, None, atom, text_edit=text_edit)
        reference = read_ensemble(walk_file(tmp_path, name="plain.jsonl", level=2))
        assert same_arrays(data, reference)

    @pytest.mark.parametrize("atom", [0, 14])
    @pytest.mark.parametrize("edit, message", [case[1:] for case in MALFORMED_ROWS],
                             ids=[case[0] for case in MALFORMED_ROWS])
    def test_row_error_names_the_atom(self, tmp_path, monkeypatch, edit, message, atom):
        with pytest.raises(ParameterError, match=rf"^atom {atom}{message}"):
            self.read_with(tmp_path, monkeypatch, edit, atom)

    def test_entries_past_64_bits_rejected(self, tmp_path, monkeypatch):
        # the same probability with numerator and denominator times 2^64,
        # and times 2^1400, which puts the numerator past every float:
        # every row check passes, but both block paths take 64-bit entries only
        for shift in (64, 1400):
            def edit(row):
                return {**row, "p": [row["p"][0] << shift, row["p"][1] + shift]}

            with pytest.raises(ParameterError, match=r"^atoms 12-15\.p: entries must fit in 64-bit integers"):
                self.read_with(tmp_path, monkeypatch, edit, 14)

    @pytest.mark.parametrize("atom", [0, 14])
    @pytest.mark.parametrize("one", [1.0], ids=["float"])
    def test_innovations_equal_to_one_accepted(self, tmp_path, monkeypatch, one, atom):
        def edit(row):
            return {**row, "xi": [one if v == 1 else v for v in row["xi"]]}

        data = self.read_with(tmp_path, monkeypatch, edit, atom)
        reference = read_ensemble(walk_file(tmp_path, name="plain.jsonl", level=2))
        assert np.array_equal(data.xi, reference.xi)
        assert np.array_equal(data.values, reference.values)


# the bytes a mutation writes: JSON punctuation, digits and the letters
# of its literals, a line break, a NUL and a byte that is never UTF-8
FUZZ_BYTES = b'{}[]":,.-+ 0123456789eEtrufalsn\n\x00\xff'


@pytest.mark.parametrize("spec", [
    GeneratorSpec(kind="rademacher_bm", level=2, seed=1),
    GeneratorSpec(kind="rl_fractional", level=3, mode="ensemble", paths=16, seed=1),
    GeneratorSpec(kind="deterministic_drift", level=3, mu=0.5),
], ids=["L2-tree", "L3-ensemble", "deterministic-drift"])
def test_mutated_files_read_or_raise_parameter_error(tmp_path, spec):
    """A seeded byte-mutation fuzz: 1,500 copies of a small file, each with
    one to three bytes replaced, inserted or deleted, must each read into
    arrays or raise ParameterError, never any other exception."""
    path = tmp_path / "mutated.jsonl"
    write_spec(str(path), spec)
    raw = path.read_bytes()
    rng = np.random.default_rng(17)
    outcomes = {"read": 0, "refused": 0}
    for i in range(1500):
        data = bytearray(raw)
        edits = []
        for _ in range(int(rng.integers(1, 4))):
            op = ("replace", "insert", "delete")[int(rng.integers(3))]
            at = int(rng.integers(len(data)))
            byte = FUZZ_BYTES[int(rng.integers(len(FUZZ_BYTES)))]
            if op == "replace":
                data[at] = byte
            elif op == "insert":
                data.insert(at, byte)
            else:
                del data[at]
            edits.append((op, at, bytes([byte])))
        path.write_bytes(data)
        try:
            read_ensemble(str(path))
            outcomes["read"] += 1
        except ParameterError:
            outcomes["refused"] += 1
        except Exception as exc:  # any other exception is a fault of the reader
            pytest.fail(f"mutation {i} {edits} raised {exc!r}")
    assert min(outcomes.values()) > 0, outcomes


# bytes that are not UTF-8 where an ASCII byte stood: a lone
# continuation byte, a lead byte before an ASCII byte, and 0xff
BAD_BYTES = [0x80, 0xC3, 0xFF]


class TestNotUtf8:
    """A byte that is not UTF-8 is bad input: the error names the line and
    the byte's offset in the file."""

    @staticmethod
    def offset_in(raw: bytes, rng, start: bytes, end: bytes, line: int) -> int:
        """A seeded offset inside the text between `start` and `end` on
        line `line` (0 is the header)."""
        begin = 0
        for _ in range(line):
            begin = raw.index(b"\n", begin) + 1
        lo = raw.index(start, begin) + len(start)
        return int(rng.integers(lo, raw.index(end, lo)))

    @pytest.mark.parametrize("crlf", [False, True], ids=["lf", "crlf"])
    @pytest.mark.parametrize("part", ["header", "v"])
    @pytest.mark.parametrize("bad", BAD_BYTES, ids=hex)
    @pytest.mark.parametrize("seed", range(3))
    def test_ensemble_error_names_the_line_and_byte(self, tmp_path, seed, bad, part, crlf):
        path = walk_file(tmp_path, level=2)
        raw = Path(path).read_bytes()
        if crlf:
            raw = raw.replace(b"\n", b"\r\n")
        rng = np.random.default_rng(seed)
        if part == "header":
            line, offset = 0, self.offset_in(raw, rng, b"{", b"}", 0)
        else:
            line = int(rng.integers(1, 17))
            offset = self.offset_in(raw, rng, b'"v":[', b"]", line)
        edited = bytearray(raw)
        edited[offset] = bad
        Path(path).write_bytes(edited)
        where = f"atom {line - 1}" if line else "header"
        with pytest.raises(ParameterError, match=rf"^{where}: not valid UTF-8 \(byte {offset} of the file: "):
            read_ensemble(path)

    def test_detect_exits_2(self, tmp_path, capsys):
        path = walk_file(tmp_path, level=2)
        raw = bytearray(Path(path).read_bytes())
        offset = self.offset_in(bytes(raw), np.random.default_rng(4), b'"v":[', b"]", 6)
        raw[offset] = 0xFF
        Path(path).write_bytes(raw)
        assert main(["detect", path, "--out", str(tmp_path / "report.json")]) == 2
        assert capsys.readouterr().err.startswith(
            f"parameter error: atom 5: not valid UTF-8 (byte {offset} of the file: invalid start byte)"
        )

    @pytest.mark.parametrize("bad", BAD_BYTES, ids=hex)
    @pytest.mark.parametrize("seed", range(3))
    def test_report_error_names_the_byte(self, tmp_path, capsys, seed, bad):
        src = walk_file(tmp_path, level=2)
        report = str(tmp_path / "report.json")
        assert main(["detect", src, "--out", report]) == 0
        capsys.readouterr()
        raw = bytearray(Path(report).read_bytes())
        offset = self.offset_in(bytes(raw), np.random.default_rng(seed), b'"timestamp":"', b'"', 0)
        raw[offset] = bad
        Path(report).write_bytes(raw)
        with pytest.raises(ParameterError, match=rf"^report: not valid UTF-8 \(byte {offset} of the file: "):
            read_report(report)
        assert main(["verify", report]) == 2
        assert capsys.readouterr().err.startswith("parameter error: report: not valid UTF-8")


class TestPayloads:
    def test_small_array_inlined(self):
        arr = np.array([[0.5, -1.0], [0.25, 0.0]])
        out = array_payload(arr)
        assert out["shape"] == [2, 2]
        assert out["data"] == [["0.5", "-1"], ["0.25", "0"]]
        assert "min" not in out

    def test_large_array_summarized(self):
        arr = np.zeros((2000, 3))
        arr[7, 1] = 4.0
        out = array_payload(arr)
        assert "data" not in out
        assert out["min"] == "0"
        assert out["max"] == "4"
        assert float(out["mean"]) == pytest.approx(4.0 / 6000.0, abs=TOL)

    def test_payload_digest_tracks_content(self):
        a = array_payload(np.array([[1.0]]))
        b = array_payload(np.array([[2.0]]))
        assert a["sha256"] != b["sha256"]

    def test_index_payload(self):
        out = index_payload(np.array([3, 1, 2], dtype=np.int64))
        assert out["shape"] == [3]
        assert out["data"] == [3, 1, 2]


class TestCodecReference:
    """The bulk encoder against the per-value reference, byte for byte."""

    @pytest.mark.parametrize("block_cells", [sio.BLOCK_CELLS, 7])
    @pytest.mark.parametrize("seed", range(6))
    def test_ensemble_rows_match_reference(self, tmp_path, monkeypatch, seed, block_cells):
        """Seeds 4 and 5 draw values from eight bit patterns, both zeros
        among them, so that the writer formats each distinct value once."""
        monkeypatch.setattr(sio, "BLOCK_CELLS", block_cells)
        rng = np.random.default_rng(seed)
        n_atoms, n_values = 64, 5
        # distinct dyadic probabilities with several denominators, summing to 1
        cuts = np.sort(rng.choice(np.arange(1, 2**12), n_atoms - 1, replace=False))
        probs = np.diff(np.concatenate([[0], cuts, [2**12]])) / 2**12
        values = (random_floats if seed < 4 else few_floats)(rng, (n_atoms, n_values))
        if seed % 2:
            spec = GeneratorSpec(kind="deterministic_drift", level=2, mu=0.5)
            xi = None
        else:
            spec = GeneratorSpec(kind="rademacher_bm", level=2, seed=seed)
            xi = rng.choice(np.array([-1, 1], dtype=np.int8), (n_atoms, n_values - 1))
        path = str(tmp_path / "codec.jsonl")
        write_ensemble(path, spec, probs, xi, values)
        with open(path) as fh:
            text = fh.read()
        header, *rows = text.split("\n")[:-1]
        assert text.endswith("\n") and json.loads(header)["atoms"] == n_atoms
        assert rows == reference_rows(probs, xi, values)
        data = read_ensemble(path)
        assert np.array_equal(data.values.view(np.uint64), values.view(np.uint64))
        assert np.array_equal(data.probs, probs)
        assert data.xi is None if xi is None else np.array_equal(data.xi, xi)

    @pytest.mark.parametrize("spec", [
        GeneratorSpec(kind="rademacher_bm", level=4, mode="exact_tree", seed=1),
        GeneratorSpec(kind="rl_fractional", level=8, mode="ensemble", paths=512, hurst=0.75, seed=1),
    ], ids=["L4-tree", "L8-ensemble"])
    def test_generated_files_take_the_block_conversion(self, tmp_path, monkeypatch, spec):
        """Every block of a generated file is in the writer's layout, so
        none of them may fall back to the checked row path."""
        path = str(tmp_path / "generated.jsonl")
        probs, xi, values = write_spec(path, spec)

        def refuse(*args):
            raise AssertionError("a block of a generated file went to the checked row path")

        monkeypatch.setattr(sio, "_checked_rows", refuse)
        data = read_ensemble(path)
        assert data.values.tobytes() == values.tobytes()
        assert np.array_equal(data.xi, xi) and np.array_equal(data.probs, probs)

    @pytest.mark.parametrize("spec, row_cells", [
        (GeneratorSpec(kind="rademacher_bm", level=3, seed=1), 17),
        (GeneratorSpec(kind="rl_fractional", level=4, mode="ensemble", paths=64, seed=1), 33),
    ], ids=["L3-tree", "L4-ensemble"])
    def test_respaced_files_read_bit_for_bit(self, tmp_path, monkeypatch, spec, row_cells):
        """Every row rewritten with json.dumps' default separators leaves
        the writer's layout, so every block, of several, goes through the
        checked row path and must give the compact file's arrays."""
        monkeypatch.setattr(sio, "BLOCK_CELLS", 10 * row_cells)
        # the spy sees the checked rows of this process only
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        path = tmp_path / "compact.jsonl"
        write_spec(str(path), spec)
        reference = read_ensemble(str(path))
        header, *rows = path.read_text().splitlines()
        respaced = tmp_path / "respaced.jsonl"
        respaced.write_text("\n".join([header] + [json.dumps(json.loads(row)) for row in rows]) + "\n")
        starts = []
        checked = sio._checked_rows

        def spy(lines, lo, *args):
            starts.append(lo)
            return checked(lines, lo, *args)

        monkeypatch.setattr(sio, "_checked_rows", spy)
        data = read_ensemble(str(respaced))
        blocks = sio._blocks(len(rows), row_cells)
        assert len(blocks) > 5 and starts == [lo for lo, _ in blocks]
        assert same_arrays(data, reference)

    def test_other_line_breaks_read_as_newlines(self, tmp_path):
        """Rows cut as str.splitlines cuts them: CRLF ends, and no end
        after the last row."""
        path = walk_file(tmp_path, level=2)
        with open(path) as fh:
            lines = fh.read().splitlines()
        edited = str(tmp_path / "crlf.jsonl")
        with open(edited, "w", newline="") as fh:
            fh.write("\r\n".join(lines))
        assert same_arrays(read_ensemble(edited), read_ensemble(path))

    # the summary mean of random bit patterns overflows to nan on both sides
    @pytest.mark.filterwarnings("ignore:overflow|invalid value:RuntimeWarning")
    @pytest.mark.parametrize("n_rows", [1024, 1025])
    def test_array_payload_matches_reference(self, n_rows):
        for name, make in PAYLOAD_INPUTS.items():
            arr = make(np.random.default_rng(n_rows), n_rows)
            assert arr.shape == (n_rows, 17)
            got, want = array_payload(arr), reference_payload(arr)
            assert first_mismatch(got, want) is None, name  # a short message when it fails
            assert canonical(got) == canonical(want), name

    def test_index_payload_matches_reference(self):
        idx = np.random.default_rng(0).integers(-(2**40), 2**40, 1025)
        for part in (idx[:1024], idx):
            out = index_payload(part)
            assert out["sha256"] == hashlib.sha256(",".join(str(int(v)) for v in part).encode()).hexdigest()
            assert out.get("data") == ([int(v) for v in part] if part.size <= 1024 else None)


# float inputs of the table gather by name: rng -> a 2-D array whose cells
# repeat, so that each block is gathered from a table of its texts
GATHER_INPUTS = {
    "signed-zeros": lambda rng: rng.choice(np.array([-0.0, 0.0]), (300, 17)),
    "extremes": lambda rng: rng.choice(np.array(
        [5e-324, -5e-324, 2.2250738585072009e-308, -2.2250738585072014e-308, 1e308, -1e308,
         1.7976931348623157e308, -0.0, 0.0]), (300, 17)),
    "one-column": lambda rng: few_floats(rng, (700, 1)),
    "one-row": lambda rng: few_floats(rng, (1, 60)),
    "one-value": lambda rng: np.full((300, 17), rng.standard_normal()),
    "strided": lambda rng: few_floats(rng, (300, 34))[:, 1::2],
    "fortran": lambda rng: np.asfortranarray(few_floats(rng, (300, 17))),
}


def same_lines(got, want) -> bool:
    """got == want (both str or both bytes), failing on the first
    differing line rather than on a diff of the whole text, which takes
    minutes on a large one."""
    sep = b"\n" if isinstance(got, bytes) else "\n"
    got, want = got.split(sep), want.split(sep)
    for i, (a, b) in enumerate(zip(got, want)):
        assert a == b, f"line {i}"
    assert len(got) == len(want)
    return True


class TestFmt17Kernel:
    """`_fmt17_table` against `b"%.17g" % x`, byte for byte.  Every case
    runs with the vectorised path taking calls of any size."""

    @pytest.fixture(autouse=True)
    def every_size_vectorised(self, monkeypatch):
        monkeypatch.setattr(sio, "_FEW", 0)

    @staticmethod
    def assert_texts(x):
        x = np.asarray(x, dtype=np.float64)
        got = sio._joined([sio._fmt17_table(x), sio._constant(b"\n", x.size)])
        assert same_lines(got, b"".join([b"%.17g\n" % v for v in x.tolist()]))

    def test_random_bit_patterns(self):
        """Every exponent, subnormals, NaN payloads and infinities."""
        rng = np.random.default_rng(29)
        self.assert_texts(rng.integers(0, 1 << 64, 10 ** 6, dtype=np.uint64, endpoint=False).view(np.float64))

    def test_edges_of_the_binary64_range(self):
        tiny = np.array([5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308, 1.7976931348623157e308])
        subnormals = np.random.default_rng(3).integers(1, 1 << 52, 1000, dtype=np.uint64).view(np.float64)
        edges = [1e-280, 1e280, np.nextafter(1e-280, 0), np.nextafter(1e280, np.inf)]
        x = np.concatenate([[0.0], tiny, subnormals, edges])
        self.assert_texts(np.concatenate([x, -x]))

    def test_powers_of_ten_and_their_neighbours(self):
        """Each 10**k one ulp away on either side; the double below 1e-14
        is within 5e-18 of it, so its 17 digits carry into the next decade."""
        p = np.array([float(f"1e{k}") for k in range(-30, 31)])
        x = np.concatenate([p, np.nextafter(p, 0), np.nextafter(p, np.inf)])
        assert Fraction(1e-14) < Fraction(1, 10 ** 14) and b"%.17g" % 1e-14 == b"1e-14"
        self.assert_texts(np.concatenate([x, -x]))

    def test_values_that_carry_into_the_next_decade(self):
        x = np.array([9.9999999999999999e-5, 9.99999999999999999e-1, 1e-14, 1e98, 1e-243])
        for _ in range(3):
            x = np.concatenate([x, np.nextafter(x, 0), np.nextafter(x, np.inf)])
        self.assert_texts(x)

    def test_ties_round_half_even(self):
        """m / 4 for odd m in [4e15, 9e15] ends in .25 or .75, exactly
        half a unit of its 17th digit."""
        m = 2 * np.random.default_rng(7).integers(2 * 10 ** 15, 45 * 10 ** 14, 10 ** 5) + 1
        assert sio._fmt17_table(np.array([1234567890123456.25])).tobytes().strip(b"\0") == b"1234567890123456.2"
        self.assert_texts(np.concatenate([m / 4, -m / 4]))

    @pytest.mark.parametrize("off", [1, -1])
    def test_a_decade_estimate_one_off_gives_the_same_bytes(self, monkeypatch, off):
        rng = np.random.default_rng(11)
        x = rng.standard_normal(10 ** 5) * 10.0 ** rng.integers(-300, 300, 10 ** 5)
        decades = sio._decades
        monkeypatch.setattr(sio, "_decades", lambda a: decades(a) + off)
        self.assert_texts(np.concatenate([x, [0.0, -0.0, 1.0, 1e16, 1e17, 9.9999999999999999e-5]]))

    def test_a_cell_in_the_tie_band_goes_to_fmt17(self, monkeypatch):
        formatted = []
        fmt17 = sio.fmt17

        def spy(v):
            formatted.append(v)
            return fmt17(v)

        monkeypatch.setattr(sio, "fmt17", spy)
        x = np.array([1234567890123456.25, 0.1, -2.5e-300, 1e300, np.inf])
        self.assert_texts(x)
        assert formatted == [1234567890123456.25, -2.5e-300, 1e300, np.inf]

    def test_a_small_call_gives_the_same_bytes(self, monkeypatch):
        x = np.random.default_rng(13).standard_normal(40) * 1e-5
        fast = sio._fmt17_table(x).tobytes().translate(None, b"\0")
        monkeypatch.setattr(sio, "_FEW", 128)
        assert sio._fmt17_table(x).tobytes().translate(None, b"\0") == fast
        assert sio._fmt17_table(np.empty(0)).shape[0] == 0


class TestTableGather:
    """The table-gather kernel against the per-row expression it replaced
    (`helpers.payload_lines`), byte for byte."""

    @pytest.mark.parametrize("block_cells", [sio.BLOCK_CELLS, 17 * 5 + 3, 1])
    @pytest.mark.parametrize("name", list(GATHER_INPUTS))
    @pytest.mark.parametrize("seed", range(2))
    def test_payload_text_matches_reference(self, monkeypatch, seed, name, block_cells):
        monkeypatch.setattr(sio, "BLOCK_CELLS", block_cells)
        arr = GATHER_INPUTS[name](np.random.default_rng(seed))
        assert sio._repeats(arr)
        want = "".join(line + "\n" for line in payload_lines(arr)).encode()
        assert same_lines(b"".join(sio._payload_blocks(arr)), want)
        got, ref = array_payload(arr), reference_payload(arr)
        assert first_mismatch(got, ref) is None and canonical(got) == canonical(ref)

    @pytest.mark.parametrize("name", list(GATHER_INPUTS))
    def test_block_text_matches_reference(self, monkeypatch, name):
        """Values that repeat, gathered with every int8 innovation in many
        blocks; the innovations are no +/-1 row, so only the writer reads them."""
        monkeypatch.setattr(sio, "BLOCK_CELLS", 3 * 17 + 1)
        rng = np.random.default_rng(5)
        values = GATHER_INPUTS[name](rng)
        n = values.shape[0]
        xi = np.resize(np.arange(-128, 128, dtype=np.int8), n * 16).reshape(n, 16)
        rng.shuffle(xi.ravel())
        self.assert_rows(rng, values, xi)
        self.assert_rows(rng, values, None)

    @pytest.mark.parametrize("seed", range(3))
    def test_distinct_rows_are_gathered_with_the_innovation_table(self, monkeypatch, seed):
        """Mostly distinct values, each formatted in place and gathered
        beside the gathered innovations, including a single column of them."""
        monkeypatch.setattr(sio, "BLOCK_CELLS", 40)
        rng = np.random.default_rng(seed)
        values = random_floats(rng, (200, 5))
        assert not sio._repeats(values)
        for width in (1, 4, 0):
            self.assert_rows(rng, values, rng.integers(-128, 128, (200, width), dtype=np.int8))

    @staticmethod
    def assert_rows(rng, values, xi):
        n = values.shape[0]
        codes = ["1,%d" % k for k in range(1, 4)]
        inverse = rng.integers(0, 3, n)
        heads = sio._table([b'{"p":[%s],"v":[' % c.encode() for c in codes])
        if xi is None:
            xi = np.empty((n, 0), dtype=np.int8)
        state = (heads, inverse, values, xi)
        spans = sio._blocks(n, values.shape[1] + xi.shape[1])
        got = b"".join(sio._block_text(state, lo, hi) for lo, hi in spans).decode()
        assert same_lines(got, ensemble_rows_text(codes, inverse, values, xi))

    @pytest.mark.parametrize("spec, block_cells", [
        (GeneratorSpec(kind="rademacher_bm", level=4, mode="exact_tree", seed=1), 33 * 40),
        (GeneratorSpec(kind="rl_fractional", level=4, mode="exact_tree", hurst=0.75, seed=1), 33 * 40),
        (GeneratorSpec(kind="jump", level=4, mode="ensemble", paths=512, seed=3), 33 * 7),
        (GeneratorSpec(kind="drifted", level=6, mode="ensemble", paths=128, seed=2), 129 * 3),
    ], ids=["L4-tree", "L4-rl-tree", "jump-ensemble", "drifted-ensemble"])
    def test_written_files_match_reference_in_many_blocks(self, tmp_path, monkeypatch, spec, block_cells):
        monkeypatch.setattr(sio, "BLOCK_CELLS", block_cells)
        src = generate(spec)
        path = tmp_path / "many.jsonl"
        write_ensemble(str(path), spec, src.probs, src.xi, src.values)
        assert len(sio._blocks(src.probs.size, src.values.shape[1] + src.xi.shape[1])) > 5
        distinct, inverse = np.unique(src.probs, return_inverse=True)
        codes = ["%d,%d" % tuple(dyadic_encode(p)) for p in distinct]
        body = path.read_bytes().split(b"\n", 1)[1]
        assert same_lines(body, ensemble_rows_text(codes, inverse, src.values, src.xi).encode())

    # the summary mean of random bit patterns overflows to nan
    @pytest.mark.filterwarnings("ignore:overflow|invalid value:RuntimeWarning")
    @pytest.mark.parametrize("n_rows", [1024, 1025])
    @pytest.mark.parametrize("block_cells", [17, 17 * 30 + 1])
    def test_array_payload_digest_is_fed_block_by_block(self, monkeypatch, n_rows, block_cells):
        monkeypatch.setattr(sio, "BLOCK_CELLS", block_cells)
        rng = np.random.default_rng(n_rows)
        for arr in (few_floats(rng, (n_rows, 17)), random_floats(rng, (n_rows, 17))):
            digest = hashlib.sha256("\n".join(payload_lines(arr)).encode()).hexdigest()
            assert array_payload(arr)["sha256"] == digest


class CutOff(io.FileIO):
    """A forked child's pipe, when a test makes it `os.fdopen` in the child:
    the child is killed once it has sent its first frame's length, when
    it comes to write more than a length."""

    def write(self, data):
        if len(data) > 8:
            os.kill(os.getpid(), signal.SIGKILL)
        return super().write(data)


class TestPooledWriter:
    """write_ensemble formats mostly distinct values in forked children:
    the blocks are dealt out round-robin to this process and a child per
    further CPU.  The file must not depend on how many there are, and
    none may outlive the call.  An L4 row holds 17 values and 16
    innovations, so blocks of 7 rows cut a 256-path ensemble into 37
    blocks: at 2 CPUs a child formats the odd blocks, the first of them
    atoms 7-13; at 3 CPUs one child blocks 1, 4, ... and another blocks
    2, 5, ..."""

    SPEC = GeneratorSpec(kind="rl_fractional", level=4, mode="ensemble", paths=256, hurst=0.75)

    @staticmethod
    def cpus(monkeypatch, n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))

    @staticmethod
    def spy_pool(monkeypatch, child=None):
        """The forks write_ensemble makes, in a list (as
        `TestSplitReader.spy_fork`, which `child` is passed to)."""
        return TestSplitReader.spy_fork(monkeypatch, child)

    @staticmethod
    def written(tmp_path, name, spec, src):
        """The file's bytes, or the repr of the ValueError the write raised;
        either way no child is left."""
        path = tmp_path / name
        try:
            write_ensemble(str(path), spec, src.probs, src.xi, src.values)
            return path.read_bytes()
        except ValueError as exc:
            return repr(exc)
        finally:
            with pytest.raises(ChildProcessError):
                os.waitpid(-1, os.WNOHANG)

    def one_cpu_bytes(self, tmp_path, monkeypatch, spec, src) -> bytes:
        with monkeypatch.context() as m:
            self.cpus(m, 1)
            started = self.spy_pool(m)
            data = self.written(tmp_path, "one-cpu.jsonl", spec, src)
        assert started == []
        return data

    # name -> (spec fields, BLOCK_CELLS, blocks, whether children format
    # them); an L4 row holds 17 values and 16 innovations.  The values of
    # a jump ensemble repeat, so they are formatted here.
    ENSEMBLES = {
        "rl-1-block": (dict(kind="rl_fractional", level=4, paths=256, hurst=0.75), None, 1, False),
        "rl-2-blocks": (dict(kind="rl_fractional", level=4, paths=2048, hurst=0.3), None, 2, True),
        "rl-many-blocks": (dict(kind="rl_fractional", level=4, paths=256, hurst=0.75), 33 * 7, 37, True),
        "jump": (dict(kind="jump", level=4, paths=512, seed=3), 33 * 50, 11, False),
    }

    @pytest.mark.parametrize("cpus", [2, 3])
    @pytest.mark.parametrize("case", list(ENSEMBLES))
    def test_bytes_do_not_depend_on_the_cpus(self, tmp_path, monkeypatch, case, cpus):
        fields, block_cells, blocks, pooled = self.ENSEMBLES[case]
        if block_cells:
            monkeypatch.setattr(sio, "BLOCK_CELLS", block_cells)
        spec = GeneratorSpec(mode="ensemble", **fields)
        src = generate(spec)
        assert len(sio._blocks(src.probs.size, 33)) == blocks
        reference = self.one_cpu_bytes(tmp_path, monkeypatch, spec, src)
        self.cpus(monkeypatch, cpus)
        started = self.spy_pool(monkeypatch)
        assert self.written(tmp_path, "pooled.jsonl", spec, src) == reference
        # this process and a child per further CPU, never more than blocks
        assert len(started) == (min(cpus, blocks) - 1 if pooled else 0)

    @pytest.mark.parametrize("spec", [
        GeneratorSpec(kind="rademacher_bm", level=4, mode="exact_tree", seed=1),
        GeneratorSpec(kind="deterministic_drift", level=8, mu=0.5),
    ], ids=["L4-tree", "deterministic-drift"])
    def test_repeated_values_or_one_row_are_formatted_here(self, tmp_path, monkeypatch, spec):
        """The L4 tree's 65,536 rows repeat 33 values; deterministic_drift
        has one row, whose values are distinct."""
        src = generate(spec)
        self.cpus(monkeypatch, 2)
        started = self.spy_pool(monkeypatch)
        self.written(tmp_path, "repeats.jsonl", spec, src)
        assert started == []

    @pytest.mark.parametrize("case", ["daemonic", "no-affinity"])
    def test_falls_back_to_this_process(self, tmp_path, monkeypatch, case):
        """Without os.sched_getaffinity the blocks are formatted here; a
        daemonic multiprocessing process forks as any other does."""
        monkeypatch.setattr(sio, "BLOCK_CELLS", 33 * 7)
        spec = self.SPEC
        src = generate(spec)
        reference = self.one_cpu_bytes(tmp_path, monkeypatch, spec, src)
        self.cpus(monkeypatch, 2)
        started = self.spy_pool(monkeypatch)
        if case == "daemonic":
            monkeypatch.setattr(multiprocessing, "current_process",
                                lambda: type("Daemonic", (), {"daemon": True})())
        elif case == "no-affinity":
            monkeypatch.delattr(os, "sched_getaffinity")
        assert self.written(tmp_path, "fallback.jsonl", spec, src) == reference
        assert len(started) == (case == "daemonic")

    @pytest.mark.parametrize("cpus", [2, 3])
    @pytest.mark.parametrize("case", ["fork-fails", "child-killed", "block-raises"])
    def test_a_share_without_its_child_is_formatted_here(self, tmp_path, monkeypatch, case, cpus):
        """A block whose child cannot be forked, is killed before it sends
        or raises is formatted here in its turn: the same bytes as at one
        CPU, or the same exception, from block 31, which a child formats
        at 2 and at 3 CPUs."""
        monkeypatch.setattr(sio, "BLOCK_CELLS", 33 * 7)
        spec = self.SPEC
        src = generate(spec)
        if case == "block-raises":
            block_text = sio._block_text

            def fail_late(state, lo, hi):
                if lo >= 217:
                    raise ValueError(f"no text for rows {lo}-{hi - 1}")
                return block_text(state, lo, hi)

            monkeypatch.setattr(sio, "_block_text", fail_late)
        reference = self.one_cpu_bytes(tmp_path, monkeypatch, spec, src)
        assert (reference == "ValueError('no text for rows 217-223')") == (case == "block-raises")
        self.cpus(monkeypatch, cpus)
        child = {"child-killed": lambda: os.kill(os.getpid(), signal.SIGKILL)}.get(case)
        started = self.spy_pool(monkeypatch, "fails" if case == "fork-fails" else child)
        assert self.written(tmp_path, "fallback.jsonl", spec, src) == reference
        assert len(started) == cpus - 1

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_a_child_cut_off_mid_message_raises(self, tmp_path, monkeypatch, cpus):
        """A child killed after it sent its message's length, before its
        bytes, neither hangs the write nor leaves a short file without an
        error: ChildProcessError names the child's first block."""
        monkeypatch.setattr(sio, "BLOCK_CELLS", 33 * 7)
        src = generate(self.SPEC)
        self.cpus(monkeypatch, cpus)
        started = self.spy_pool(monkeypatch, lambda: setattr(os, "fdopen", CutOff))
        with pytest.raises(ChildProcessError, match="rows 7-13: the child's message ended"):
            self.written(tmp_path, "cut.jsonl", self.SPEC, src)
        assert len(started) == cpus - 1

    def test_a_child_sends_each_block_before_it_formats_the_next(self, tmp_path, monkeypatch):
        """At 2 CPUs a child's block reaches this process whole before the
        child formats its next one: here the child's second block (block
        3) stalls for a minute, and block 2, formatted here after the
        child's first, raises long before."""
        monkeypatch.setattr(sio, "BLOCK_CELLS", 33 * 7)
        src = generate(self.SPEC)
        block_text = sio._block_text
        parent = os.getpid()

        def stall_or_fail(state, lo, hi):
            if lo == 21:
                time.sleep(60)
            if lo == 14 and os.getpid() == parent:
                raise ValueError("no text for block 2")
            return block_text(state, lo, hi)

        monkeypatch.setattr(sio, "_block_text", stall_or_fail)
        self.cpus(monkeypatch, 2)
        started = self.spy_pool(monkeypatch)
        t = time.monotonic()
        with pytest.raises(ValueError, match="no text for block 2"):
            write_ensemble(str(tmp_path / "stalled.jsonl"), self.SPEC, src.probs, src.xi, src.values)
        assert time.monotonic() - t < 30 and len(started) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_a_failing_block_stops_every_worker(self, tmp_path, monkeypatch):
        monkeypatch.setattr(sio, "BLOCK_CELLS", 33 * 7)
        spec = self.SPEC
        src = generate(spec)
        block_text = sio._block_text

        def fail_late(state, lo, hi):
            if lo >= 140:
                raise ValueError(f"no text for rows {lo}-{hi - 1}")
            return block_text(state, lo, hi)

        monkeypatch.setattr(sio, "_block_text", fail_late)
        self.cpus(monkeypatch, 2)
        started = self.spy_pool(monkeypatch)
        with pytest.raises(ValueError, match="no text for rows 140-146"):
            write_ensemble(str(tmp_path / "failed.jsonl"), spec, src.probs, src.xi, src.values)
        assert len(started) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


class TestSplitReader:
    """read_ensemble parses the later blocks of a file whose values are
    mostly distinct in forked children, one per CPU.  Whatever the CPU
    count, a file must read to the same arrays, sha256 and error text,
    and no child may outlive the read.  An L4 row holds 17 values and
    16 innovations, so blocks of 7 rows cut a 256-path ensemble into 37
    blocks.  This process parses block 0, then shares out the other 36:
    at 2 CPUs it parses blocks 0-18 (atoms 0-132), at 3 CPUs blocks 0-12
    (atoms 0-90), and children parse the rest."""

    SPEC = GeneratorSpec(kind="rl_fractional", level=4, mode="ensemble", paths=256, hurst=0.75)

    @staticmethod
    def spy_fork(monkeypatch, child=None):
        """The forks read_ensemble makes, in a list.  `child` replaces what
        a forked child does; "fails" makes the fork raise OSError."""
        forks = []
        fork = os.fork

        def spy():
            forks.append(1)
            if child == "fails":
                raise OSError(11, "Resource temporarily unavailable")
            pid = fork()
            if pid == 0 and child is not None:
                child()
            return pid

        monkeypatch.setattr(os, "fork", spy)
        return forks

    @staticmethod
    def outcome(data):
        """What a read gives: its arrays and sha256, or its error text."""
        if isinstance(data, str):
            return data
        xi = b"" if data.xi is None else data.xi.tobytes()
        return data.probs.tobytes(), xi, data.values.tobytes(), data.sha256

    def read(self, monkeypatch, path, cpus, child=None):
        """(outcome, number of forks) of reading path with `cpus` CPUs."""
        with monkeypatch.context() as m:
            m.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
            forks = self.spy_fork(m, child)
            try:
                result = self.outcome(read_ensemble(str(path)))
            except ParameterError as exc:
                result = str(exc)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        return result, len(forks)

    def write(self, tmp_path, spec=SPEC, name="split.jsonl"):
        path = tmp_path / name
        write_spec(str(path), spec)
        return path

    def assert_same_at_any_cpus(self, monkeypatch, path, split=True):
        reference, forks = self.read(monkeypatch, path, 1)
        assert forks == 0
        for cpus in (2, 3):
            assert self.read(monkeypatch, path, cpus) == (reference, cpus - 1 if split else 0)
        return reference

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(sio, "BLOCK_CELLS", 33 * 7)

    # a child's message holds its values rows, its xi rows, then its p
    # entries; small pieces straddle the boundaries between them
    @pytest.mark.parametrize("piece", [1, 7, sio.PIECE])
    def test_distinct_values_read_the_same(self, tmp_path, monkeypatch, piece):
        monkeypatch.setattr(sio, "PIECE", piece)
        path = self.write(tmp_path)
        reference = self.assert_same_at_any_cpus(monkeypatch, path)
        src = generate(self.SPEC)
        assert reference[2] == src.values.tobytes() and reference[1] == src.xi.tobytes()

    def test_rows_without_innovations_read_the_same(self, tmp_path, monkeypatch):
        """A child's xi part is empty when the file has no innovations: a
        frame of length 0, which must not end its message."""
        spec = GeneratorSpec(kind="deterministic_drift", level=4, mu=0.5)
        values = np.random.default_rng(5).standard_normal((256, 17))
        path = tmp_path / "no-xi.jsonl"
        write_ensemble(str(path), spec, np.full(256, 1 / 256), None, values)
        reference = self.assert_same_at_any_cpus(monkeypatch, path)
        assert reference[1] == b"" and reference[2] == values.tobytes()

    def test_a_repeating_tree_is_read_here(self, tmp_path, monkeypatch):
        spec = GeneratorSpec(kind="rademacher_bm", level=4, mode="exact_tree", seed=1)
        monkeypatch.setattr(sio, "BLOCK_CELLS", 33 * 500)
        path = self.write(tmp_path, spec)
        assert len(sio._blocks(65536, 33)) == 132
        self.assert_same_at_any_cpus(monkeypatch, path, split=False)

    def test_a_last_row_without_a_line_break(self, tmp_path, monkeypatch):
        path = self.write(tmp_path)
        path.write_bytes(path.read_bytes()[:-1])
        self.assert_same_at_any_cpus(monkeypatch, path)

    def test_a_re_encoded_file(self, tmp_path, monkeypatch):
        """Arabic zeros as the start values of atom 0 and of atom 250, in a
        child's share, make the file UTF-8 beyond ASCII; it still reads as
        the plain file does."""
        path = self.write(tmp_path)
        header, *rows = path.read_text().splitlines()
        for a in (0, 250):
            rows[a] = rows[a].replace('"v":["0"', '"v":["\u0660"')
        path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
        reference = self.assert_same_at_any_cpus(monkeypatch, path)
        plain = self.outcome(read_ensemble(str(self.write(tmp_path, name="plain.jsonl"))))
        assert reference[:3] == plain[:3]

    def test_respaced_rows_take_the_checked_path_in_the_children(self, tmp_path, monkeypatch):
        path = self.write(tmp_path)
        header, *rows = path.read_text().splitlines()
        path.write_text("\n".join([header] + [json.dumps(json.loads(row)) for row in rows]) + "\n")
        reference = self.assert_same_at_any_cpus(monkeypatch, path)
        plain = self.outcome(read_ensemble(str(self.write(tmp_path, name="plain.jsonl"))))
        assert reference[:3] == plain[:3]

    # atoms: 3 in the first block, read before any fork; 60 in this
    # process's share; 100 in this process's share at 2 CPUs and in the
    # first child's at 3; 200 in the last child's share
    @pytest.mark.parametrize("atoms", [(3,), (60,), (200,), (60, 200), (100, 200), (3, 100, 200)],
                             ids=lambda atoms: "-".join(map(str, atoms)))
    @pytest.mark.parametrize("fault", ["not-json", "v-inf", "p-past-64-bits"])
    def test_the_first_fault_in_file_order_is_raised(self, tmp_path, monkeypatch, atoms, fault):
        path = self.write(tmp_path)
        header, *rows = path.read_text().splitlines()
        for a in atoms:
            row = json.loads(rows[a])
            if fault == "not-json":
                rows[a] = "{not json"
                continue
            if fault == "v-inf":
                row["v"][3] = "inf"
            else:
                row["p"] = [row["p"][0] << 64, row["p"][1] + 64]
            rows[a] = json.dumps(row, separators=(",", ":"))
        path.write_text("\n".join([header, *rows]) + "\n")
        message, _ = self.read(monkeypatch, path, 1)
        first = atoms[0]
        lo = first - first % 7
        assert message.startswith(f"atoms {lo}-{lo + 6}.p" if fault == "p-past-64-bits" else f"atom {first}")
        for cpus in (2, 3):
            assert self.read(monkeypatch, path, cpus) == (message, 0 if first < 7 else cpus - 1)

    @pytest.mark.parametrize("case", ["no-affinity", "daemonic", "fork-fails", "child-killed"])
    def test_falls_back_to_this_process(self, tmp_path, monkeypatch, case):
        path = self.write(tmp_path)
        reference, _ = self.read(monkeypatch, path, 1)
        if case == "no-affinity":
            monkeypatch.delattr(os, "sched_getaffinity")
            forks = self.spy_fork(monkeypatch)
            assert self.outcome(read_ensemble(str(path))) == reference and forks == []
            return
        if case == "daemonic":
            monkeypatch.setattr(multiprocessing, "current_process",
                                lambda: type("Daemonic", (), {"daemon": True})())
        child = {"fork-fails": "fails", "child-killed": lambda: os.kill(os.getpid(), signal.SIGKILL)}.get(case)
        assert self.read(monkeypatch, path, 3, child) == (reference, 2)

    def test_a_child_cut_off_mid_message_raises(self, tmp_path, monkeypatch):
        """A child killed after it sent its message's length, before its
        bytes, raises ChildProcessError naming its share; none is left."""
        path = self.write(tmp_path)
        with monkeypatch.context() as m:
            m.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
            self.spy_fork(m, lambda: setattr(os, "fdopen", CutOff))
            with pytest.raises(ChildProcessError, match="rows 133-255: the child's message ended"):
                read_ensemble(str(path))
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_mutated_files_read_as_in_one_process(self, tmp_path, monkeypatch):
        """A seeded byte-mutation fuzz of a multi-block, distinct-valued
        file: each of 300 copies, with one to three bytes replaced,
        inserted or deleted, reads at 2 CPUs as it reads at 1."""
        spec = GeneratorSpec(kind="rl_fractional", level=3, mode="ensemble", paths=64, hurst=0.75)
        monkeypatch.setattr(sio, "BLOCK_CELLS", 17 * 5)
        path = self.write(tmp_path, spec)
        raw = path.read_bytes()
        rng = np.random.default_rng(23)
        kinds = collections.Counter()
        for i in range(300):
            data = bytearray(raw)
            for _ in range(int(rng.integers(1, 4))):
                op = int(rng.integers(3))
                at = int(rng.integers(len(data)))
                byte = FUZZ_BYTES[int(rng.integers(len(FUZZ_BYTES)))]
                if op == 0:
                    data[at] = byte
                elif op == 1:
                    data.insert(at, byte)
                else:
                    del data[at]
            path.write_bytes(data)
            one, _ = self.read(monkeypatch, path, 1)
            two, forks = self.read(monkeypatch, path, 2)
            assert two == one, f"mutation {i}"
            kinds[isinstance(one, str), forks] += 1
        # reads and refusals split across children, and faults in the first block
        assert min(kinds[False, 1], kinds[True, 1], kinds[True, 0]) > 0, kinds

    def test_a_report_written_at_one_cpu_verifies_at_two(self, tmp_path, monkeypatch, capsys):
        spec = GeneratorSpec(kind="rl_fractional", level=4, mode="ensemble", paths=64, hurst=0.75)
        path = str(self.write(tmp_path, spec))
        report = str(tmp_path / "report.json")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert main(["detect", path, "--out", report]) in (0, 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        forks = self.spy_fork(monkeypatch)
        assert main(["verify", report, "--source", path]) == 0
        assert len(forks) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


class TestFirstMismatch:
    def test_equal_trees(self):
        doc = {"a": [1, 2, {"b": "x"}], "c": None}
        assert first_mismatch(doc, json.loads(json.dumps(doc))) is None

    def test_nested_scalar_path(self):
        a = {"x": {"y": {"z": 1}}}
        b = {"x": {"y": {"z": 2}}}
        assert first_mismatch(a, b) == "body.x.y.z"

    def test_missing_key_path(self):
        assert first_mismatch({"x": 1}, {}) == "body.x"

    def test_list_length_path(self):
        assert first_mismatch({"x": [1, 2]}, {"x": [1]}) == "body.x (length)"

    def test_list_element_path(self):
        assert first_mismatch([1, 2, 3], [1, 9, 3]) == "body[1]"

    def test_type_mismatch(self):
        assert first_mismatch({"x": 1}, {"x": "1"}) == "body.x"


class TestReports:
    def detect_body(self, tmp_path):
        path = walk_file(tmp_path, level=2)
        data = read_ensemble(path)
        config = DetectConfig()
        verdict = detect(data.to_source(), config)
        return data, config, verdict

    def test_body_is_deterministic(self, tmp_path):
        data, config, verdict = self.detect_body(tmp_path)
        body_a = report_body(data, config, verdict)
        body_b = report_body(data, config, verdict)
        assert first_mismatch(body_a, body_b) is None

    def test_write_read_round_trip(self, tmp_path):
        data, config, verdict = self.detect_body(tmp_path)
        body = report_body(data, config, verdict)
        out = str(tmp_path / "report.json")
        write_report(out, body, source_name="walk.jsonl")
        doc = read_report(out)
        assert doc["format"] == "semimart-report-1"
        assert doc["source_name"] == "walk.jsonl"
        assert first_mismatch(doc["body"], body) is None

    def test_certificate_payload_fields(self, tmp_path):
        data, config, verdict = self.detect_body(tmp_path)
        body = report_body(data, config, verdict)
        assert body["verdict"] == "certificate"
        assert body["source"]["sha256"] == data.sha256
        payload = body["payload"]
        assert set(payload) >= {"M", "A", "alpha_index", "constants", "residuals"}
        assert payload["A"]["data"] is not None
        assert body["levels"]

    def test_read_report_rejects_malformed(self, tmp_path):
        out = str(tmp_path / "report.json")
        with open(out, "w") as fh:
            fh.write('{"format":"semimart-report-1"}\n')
        with pytest.raises(ParameterError, match="source_name|body"):
            read_report(out)
        with open(out, "w") as fh:
            fh.write("[]\n")
        with pytest.raises(ParameterError):
            read_report(out)
        with pytest.raises(ParameterError):
            read_report(str(tmp_path / "missing.json"))


class TestCliFlows:
    def test_generate_detect_verify(self, tmp_path, capsys):
        src = str(tmp_path / "walk.jsonl")
        rc = main(
            ["generate", "--kind", "rademacher_bm", "--level", "1", "--seed", "7", "--out", src]
        )
        assert rc == 0
        assert "wrote" in capsys.readouterr().out
        data = read_ensemble(src)
        assert data.probs.size == 4
        assert np.allclose(data.probs, 0.25)

        report = str(tmp_path / "report.json")
        rc = main(["detect", src, "--out", report])
        out = capsys.readouterr().out
        assert rc == 0
        assert "verdict: certificate" in out

        rc = main(["verify", report])
        out = capsys.readouterr().out
        assert rc == 0
        assert "verified:" in out

    def test_verify_flags_tampered_value(self, tmp_path, capsys):
        src = str(tmp_path / "walk.jsonl")
        report = str(tmp_path / "report.json")
        main(["generate", "--kind", "rademacher_bm", "--level", "1", "--seed", "7", "--out", src])
        main(["detect", src, "--out", report])
        capsys.readouterr()

        with open(report) as fh:
            doc = json.load(fh)
        doc["body"]["payload"]["residuals"]["decomposition"] = "0.5"
        with open(report, "w") as fh:
            json.dump(doc, fh, sort_keys=True, separators=(",", ":"))

        rc = main(["verify", report])
        out = capsys.readouterr().out
        assert rc == 1
        assert "mismatch at body.payload.residuals.decomposition" in out

    def test_verify_flags_changed_source(self, tmp_path, capsys):
        src = str(tmp_path / "walk.jsonl")
        report = str(tmp_path / "report.json")
        main(["generate", "--kind", "rademacher_bm", "--level", "1", "--seed", "7", "--out", src])
        main(["detect", src, "--out", report])
        main(["generate", "--kind", "rademacher_bm", "--level", "1", "--seed", "8", "--out", src])
        capsys.readouterr()

        rc = main(["verify", report])
        out = capsys.readouterr().out
        assert rc == 1
        assert "mismatch at body.source.sha256" in out

    def test_verify_with_explicit_source(self, tmp_path, capsys):
        src = str(tmp_path / "walk.jsonl")
        report = str(tmp_path / "sub")
        os.mkdir(report)
        report = os.path.join(report, "report.json")
        main(["generate", "--kind", "rademacher_bm", "--level", "1", "--seed", "7", "--out", src])
        main(["detect", src, "--out", report])
        capsys.readouterr()
        assert main(["verify", report, "--source", src]) == 0
        assert "verified:" in capsys.readouterr().out

    def test_parameter_error_exit_code(self, tmp_path, capsys):
        rc = main(["generate", "--kind", "rademacher_bm", "--level", "0", "--out", str(tmp_path)])
        assert rc == 2
        assert "parameter error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "kind, flag, value, field",
        [("drifted", "--mu", "nan", "mu"), ("jump", "--jump-size", "inf", "jump_size"),
         ("drifted", "--scale", "inf", "scale")],
    )
    def test_generate_rejects_values_that_are_not_finite(self, tmp_path, capsys, kind, flag,
                                                         value, field):
        out = str(tmp_path / "gen.jsonl")
        rc = main(["generate", "--kind", kind, "--level", "2", flag, value, "--out", out])
        assert rc == 2
        assert f"{field} must be finite" in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("mode", ["ensemble", "exact"])
    def test_generate_refuses_a_negative_seed(self, tmp_path, capsys, mode):
        out = str(tmp_path / "gen.jsonl")
        rc = main(["generate", "--kind", "rl_fractional", "--level", "3", "--mode", mode,
                   "--paths", "4", "--seed", "-1", "--out", out])
        assert rc == 2
        assert "seed must be a non-negative integer, got -1" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_generate_refuses_too_many_paths_before_sampling(self, tmp_path, capsys,
                                                             monkeypatch):
        def refuse(spec):
            raise AssertionError("generate ran")

        monkeypatch.setattr(cli, "generate", refuse)
        out = str(tmp_path / "gen.jsonl")
        rc = main(["generate", "--kind", "rademacher_bm", "--level", "10", "--mode", "ensemble",
                   "--paths", str(1 << 30), "--out", out])
        assert rc == 2
        assert "paths" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_detect_rejects_levels_above_the_file_level(self, tmp_path, capsys):
        src = walk_file(tmp_path, level=2)
        report = str(tmp_path / "report.json")
        rc = main(["detect", src, "--levels", "9", "--out", report])
        assert rc == 2
        assert "levels must lie in 1..2" in capsys.readouterr().err
        assert not os.path.exists(report)

    # the ladder is only read on the free-lunch paths these two sources take
    # with the bad value: a nan cap empties it, and window 1 never reaches komlos
    @pytest.mark.parametrize(
        "spec, flag, value, field",
        [(dict(kind="rademacher_bm", level=2, seed=1), "--ladder-max", "nan", "ladder_max"),
         (dict(kind="rl_fractional", level=3, hurst=0.75), "--window", "1", "window")],
    )
    def test_detect_rejects_a_ladder_or_window_the_stages_cannot_use(self, tmp_path, capsys,
                                                                      spec, flag, value, field):
        src = str(tmp_path / "src.jsonl")
        write_spec(src, GeneratorSpec(**spec))
        report = str(tmp_path / "report.json")
        rc = main(["detect", src, flag, value, "--out", report])
        assert rc == 2
        assert f"{field} must be" in capsys.readouterr().err
        assert not os.path.exists(report)

    @pytest.mark.parametrize("target", ["generate-out", "detect-out"])
    def test_unwritable_output_path_exits_2(self, tmp_path, capsys, target):
        src = walk_file(tmp_path, level=2)
        bad = str(tmp_path / "missing" / "out")
        argv = {
            "generate-out": ["generate", "--kind", "rademacher_bm", "--level", "1", "--out", bad],
            "detect-out": ["detect", src, "--out", bad],
        }[target]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"parameter error: cannot write {bad}")

    @pytest.mark.parametrize("command", ["probe", "detect-csv"])
    def test_removed_cli_surface_is_refused_by_argparse(self, tmp_path, capsys, command):
        """`semimart probe` and `detect --csv` are gone: argparse refuses
        them with exit 2 before any output is created."""
        src = walk_file(tmp_path, level=2)
        x, r, c = (str(tmp_path / name) for name in ("probe.json", "report.json", "series.csv"))
        argv = {
            "probe": ["probe", src, "--out", x],
            "detect-csv": ["detect", src, "--out", r, "--csv", c],
        }[command]
        with pytest.raises(SystemExit) as refused:
            main(argv)
        assert refused.value.code == 2
        assert not any(os.path.exists(path) for path in (x, r, c))

    @pytest.mark.parametrize("command", ["generate", "decompose"])
    def test_unwritable_output_fails_before_the_work(self, tmp_path, capsys, monkeypatch,
                                                     command):
        src = walk_file(tmp_path, level=2)

        def refuse(*args):
            raise AssertionError(f"{command} ran")

        monkeypatch.setattr(cli, "generate", refuse)
        # an explicit output file is checked before the ensemble is read
        monkeypatch.setattr(cli, "read_ensemble", refuse)
        monkeypatch.setattr(cli, "doob_decompose", refuse)
        bad = str(tmp_path / "missing" / "x.jsonl")
        argv = {
            "generate": ["generate", "--kind", "rademacher_bm", "--level", "2", "--out", bad],
            "decompose": ["decompose", src, "--out", bad],
        }[command]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"parameter error: cannot write {bad}")

    @pytest.mark.parametrize("case", ["directory", "missing-dir", "file-as-dir"])
    def test_check_output_rejects_what_open_output_cannot_open(self, tmp_path, case):
        (tmp_path / "file").write_text("x")
        path = {"directory": tmp_path, "missing-dir": tmp_path / "missing" / "out",
                "file-as-dir": tmp_path / "file" / "out"}[case]
        with pytest.raises(ParameterError) as opened:
            sio.open_output(str(path))
        with pytest.raises(ParameterError) as checked:
            sio.check_output(str(path))
        assert str(checked.value) == str(opened.value)

    def test_check_output_creates_and_truncates_nothing(self, tmp_path):
        (tmp_path / "old.json").write_text("old\n")
        sio.check_output(str(tmp_path / "old.json"))
        sio.check_output(str(tmp_path / "new.json"))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["old.json"]
        assert (tmp_path / "old.json").read_text() == "old\n"

    def test_verify_rejects_a_source_name_that_is_not_a_string(self, tmp_path, capsys):
        src = walk_file(tmp_path, level=2)
        report = str(tmp_path / "report.json")
        assert main(["detect", src, "--out", report]) == 0
        with open(report) as fh:
            doc = json.load(fh)
        doc["source_name"] = 5
        with open(report, "w") as fh:
            json.dump(doc, fh)
        capsys.readouterr()
        assert main(["verify", report]) == 2
        assert "report.source_name: expected str, got 5" in capsys.readouterr().err

    # (field, its JSON text, the message); a number past every float
    # reads as an infinity, which no int holds
    @pytest.mark.parametrize("field, text, message", [
        ("ladder_max", '"nan"', "report.body.config: ladder_max must be finite"),
        ("window", "1e400", "report.body.config.window: cannot convert float infinity to integer"),
        ("window", "-1e400", "report.body.config.window: cannot convert float infinity to integer"),
        ("levels", "[1e400]", "report.body.config.levels: cannot convert float infinity to integer"),
    ], ids=["nan", "window-inf", "window-minus-inf", "levels-inf"])
    def test_verify_rejects_a_body_config_ladder_that_is_not_finite(self, tmp_path, capsys,
                                                                    field, text, message):
        src = walk_file(tmp_path, level=2, seed=1)
        report = str(tmp_path / "report.json")
        assert main(["detect", src, "--out", report]) == 0
        with open(report) as fh:
            doc = json.load(fh)
        doc["body"]["config"][field] = "@edited@"
        with open(report, "w") as fh:
            fh.write(canonical(doc).replace('"@edited@"', text))
        capsys.readouterr()

        rc = main(["verify", report])
        err = capsys.readouterr().err
        assert rc == 2
        assert message in err

    # (field, its JSON text, the message); a field of another JSON type
    # than report_body writes is refused before the source is read
    @pytest.mark.parametrize("field, text, message", [
        ("levels", "[true,2]", "levels: expected int, got True"),
        ("levels", '"12"', "levels: expected list, got '12'"),
        ("window", "16.7", "window: expected int, got 16.7"),
        ("window", '"16"', "window: expected int, got '16'"),
        ("window", "true", "window: expected int, got True"),
        ("eps", "0.1", "eps: expected str, got 0.1"),
        ("tol", "1e-08", "tol: expected str, got 1e-08"),
        ("ladder_max", "64", "ladder_max: expected str, got 64"),
    ], ids=["levels-bool", "levels-string", "window-float", "window-string", "window-bool",
            "eps-number", "tol-number", "ladder-number"])
    def test_verify_rejects_a_body_config_field_of_the_wrong_type(self, tmp_path, capsys,
                                                                  monkeypatch, field, text,
                                                                  message):
        src = walk_file(tmp_path, level=2, seed=1)
        report = str(tmp_path / "report.json")
        assert main(["detect", src, "--out", report]) == 0
        with open(report) as fh:
            doc = json.load(fh)
        doc["body"]["config"][field] = "@edited@"
        with open(report, "w") as fh:
            fh.write(canonical(doc).replace('"@edited@"', text))
        capsys.readouterr()

        def refuse(*args):
            raise AssertionError("verify read the source or ran detect")

        monkeypatch.setattr(cli, "read_ensemble", refuse)
        monkeypatch.setattr(cli, "detect", refuse)
        rc = main(["verify", report])
        err = capsys.readouterr().err
        assert rc == 2
        assert f"report.body.config.{message}" in err

    # (the edit of the report body, the message)
    @pytest.mark.parametrize("edit, message", [
        (lambda body: body["source"].update(sha256=5), "report.body.source.sha256: expected str, got 5"),
        (lambda body: body["source"].update(sha256=["0"] * 64),
         "report.body.source.sha256: expected str, got ['0', '0', '0', '0', '0', '0', ...]"),
        (lambda body: body.update(config=[1, 2]), "report.body.config: expected dict, got [1, 2]"),
        (lambda body: body["config"].pop("eps"), "report.body.config.eps: missing"),
    ], ids=["sha256-number", "sha256-long-list", "config-list", "config-missing-key"])
    def test_verify_refuses_a_malformed_body_field_before_reading_the_source(
            self, tmp_path, capsys, monkeypatch, edit, message):
        src = walk_file(tmp_path, level=2, seed=1)
        report = str(tmp_path / "report.json")
        assert main(["detect", src, "--out", report]) == 0
        with open(report) as fh:
            doc = json.load(fh)
        edit(doc["body"])
        with open(report, "w") as fh:
            json.dump(doc, fh)
        capsys.readouterr()
        reads = []
        read = cli.read_ensemble
        monkeypatch.setattr(cli, "read_ensemble", lambda path: reads.append(path) or read(path))
        assert main(["verify", report]) == 2
        assert capsys.readouterr().err == f"parameter error: {message}\n"
        assert reads == []

    # level 62 is refused from the header or the flags alone: nothing of
    # that size is ever allocated
    @pytest.mark.parametrize("command", ["detect", "generate"])
    def test_a_level_past_the_cap_exits_2(self, tmp_path, capsys, command):
        out = str(tmp_path / "out.json")
        if command == "detect":
            src = walk_file(tmp_path, level=2)
            text = Path(src).read_text()
            Path(src).write_text(text.replace('"level":2,', '"level":62,', 1))
            argv, where = ["detect", src, "--out", out], "header: "
        else:
            argv = ["generate", "--kind", "deterministic_drift", "--level", "62", "--out", out]
            where = ""
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(
            f"parameter error: {where}levels up to 10 are supported, got 62"
        )
        assert not os.path.exists(out)

    @staticmethod
    def non_adapted_walk(tmp_path, col) -> str:
        """A level-2 walk file with atom 0's v[col] raised by 0.01, which
        breaks F_t-measurability at time index col (col 0: S_0 is not
        F_0-measurable)."""
        src = str(tmp_path / "walk.jsonl")
        main(["generate", "--kind", "rademacher_bm", "--level", "2", "--seed", "1", "--out", src])
        with open(src) as fh:
            lines = fh.read().splitlines()
        row = json.loads(lines[1])
        row["v"][col] = fmt17(float(row["v"][col]) + 0.01)
        lines[1] = json.dumps(row)
        with open(src, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        return src

    @pytest.mark.parametrize("col", [1, 0])
    def test_detect_rejects_non_adapted_source(self, tmp_path, capsys, col):
        src = self.non_adapted_walk(tmp_path, col)
        capsys.readouterr()

        rc = main(["detect", src, "--out", str(tmp_path / "report.json")])
        err = capsys.readouterr().err
        assert rc == 2
        assert f"atom 0.v[{col}]" in err and f"time index {col}" in err
        assert "not adapted" in err

    @pytest.mark.parametrize("col", [1, 0])
    @pytest.mark.parametrize("command", ["decompose"])
    def test_rejects_non_adapted_source(self, tmp_path, capsys, command, col):
        """decompose rejects the file at the same boundary as detect."""
        src = self.non_adapted_walk(tmp_path, col)
        out = str(tmp_path / f"{command}.json")
        capsys.readouterr()

        rc = main([command, src, "--out", out])
        err = capsys.readouterr().err
        assert rc == 2
        assert f"atom 0.v[{col}]" in err and f"time index {col}" in err
        assert "not adapted" in err
        assert not os.path.exists(out)

    def test_detect_inconclusive_exit_code(self, tmp_path, capsys):
        src = str(tmp_path / "mc.jsonl")
        report = str(tmp_path / "report.json")
        rc = main(
            [
                "generate",
                "--kind",
                "rademacher_bm",
                "--level",
                "3",
                "--seed",
                "3",
                "--mode",
                "ensemble",
                "--paths",
                "8",
                "--out",
                src,
            ]
        )
        assert rc == 0
        rc = main(["detect", src, "--out", report])
        out = capsys.readouterr().out
        assert rc == 3
        assert "verdict: inconclusive" in out
        body = read_report(report)["body"]
        assert "exact" in body["payload"]["reason"]

    def test_decompose_writes_document(self, tmp_path, capsys):
        src = str(tmp_path / "walk.jsonl")
        out = str(tmp_path / "dec.json")
        main(["generate", "--kind", "rademacher_bm", "--level", "2", "--out", src])
        rc = main(["decompose", src, "--out", out])
        assert rc == 0
        assert "E[QV]" in capsys.readouterr().out
        with open(out) as fh:
            doc = json.load(fh)
        assert doc["format"] == "semimart-decomposition-1"
        assert doc["level"] == 2
        assert doc["source_sha256"] == read_ensemble(src).sha256
        assert float(doc["qv_mean"]) == pytest.approx(0.25, abs=TOL)
        assert float(doc["tv_mean"]) == pytest.approx(0.0, abs=TOL)
        A = np.array(doc["A"]["data"], dtype=float)
        assert np.max(np.abs(A)) == pytest.approx(0.0, abs=TOL)

    def test_default_out_respects_env(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SEMIMART_OUT", str(tmp_path))
        rc = main(["generate", "--kind", "rademacher_bm", "--level", "1", "--seed", "7"])
        assert rc == 0
        capsys.readouterr()
        expected = tmp_path / "rademacher_bm-L1-s7.jsonl"
        assert expected.exists()
        assert read_ensemble(str(expected)).probs.size == 4

    def test_out_directory_gets_default_name(self, tmp_path, capsys):
        rc = main(
            [
                "generate",
                "--kind",
                "rademacher_bm",
                "--level",
                "1",
                "--seed",
                "2",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 0
        capsys.readouterr()
        assert (tmp_path / "rademacher_bm-L1-s2.jsonl").exists()


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands() -> list:
    """Every `semimart ...` command in README's fenced code blocks, with
    continued lines joined and trailing comments dropped."""
    commands, fenced, line = [], False, ""
    for raw in README.read_text().splitlines():
        if raw.startswith("```"):
            fenced, line = not fenced, ""
            continue
        if not fenced:
            continue
        line += raw.strip()
        if line.endswith("\\"):
            line = line[:-1] + " "
            continue
        words = shlex.split(line, comments=True)
        if words[:1] == ["semimart"]:
            commands.append(words)
        line = ""
    return commands


def test_readme_commands_parse():
    """README advertises only flags and subcommands that the CLI takes, and
    shows every subcommand the CLI has."""
    parser = cli.build_parser()
    commands = readme_commands()
    for words in commands:
        parser.parse_args(words[1:])
    sub = next(a for a in parser._actions if a.dest == "command")
    assert list(sub.choices) == ["generate", "decompose", "detect", "verify"]
    assert {words[1] for words in commands} == set(sub.choices)
