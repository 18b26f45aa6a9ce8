"""Tests for the file formats and the command-line entry points."""

import hashlib
import json
from fractions import Fraction
import os

import numpy as np
import pytest

import semimart.io as sio
from semimart.cli import main
from semimart.errors import ParameterError
from semimart.generators import EnsembleProcess, GeneratorSpec, generate
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


def write_spec(path, spec):
    """Generate `spec` and serialize it to `path`; returns the arrays."""
    result = generate(spec)
    if isinstance(result, EnsembleProcess):
        probs, xi, values = result.space.probs, result.xi, result.values
    else:
        space, S = result
        probs, xi, values = space.probs, space.innovations, S.values
    write_ensemble(path, spec, probs, xi, values)
    return probs, xi, values


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

    def test_source_rebuilds_the_space(self, tmp_path):
        path = walk_file(tmp_path, level=2)
        data = read_ensemble(path)
        space, S = data.to_source()
        ref_space, ref_S = generate(data.spec)
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

    def test_probabilities_must_sum_to_one(self, tmp_path):
        path, lines = self.lines(tmp_path)
        row = json.loads(lines[1])
        row["p"] = [1, 3]
        lines[1] = json.dumps(row)
        self.rewrite(path, lines)
        with pytest.raises(ParameterError, match=r"p \(sum\)"):
            read_ensemble(path)


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
    ("xi-zero", lambda row: {**row, "xi": [0] + row["xi"][1:]}, r"\.xi: need 4 entries"),
    ("xi-short", lambda row: {**row, "xi": row["xi"][:-1]}, r"\.xi: need 4 entries"),
    ("xi-string", lambda row: {**row, "xi": ["1"] + row["xi"][1:]}, r"\.xi: need 4 entries"),
    ("xi-nested", lambda row: {**row, "xi": [[v] for v in row["xi"]]}, r"\.xi: need 4 entries"),
    ("v-short", lambda row: {**row, "v": row["v"][:-1]}, r"\.v: need 5 values"),
    ("v-inf", lambda row: {**row, "v": row["v"][:1] + ["inf"] + row["v"][2:]}, r"\.v: values must be finite"),
    ("v-overflow", lambda row: {**row, "v": row["v"][:1] + ["1e400"] + row["v"][2:]}, r"\.v: values must be finite"),
    ("v-null", lambda row: {**row, "v": row["v"][:1] + [None] + row["v"][2:]},
     r"\.v: float\(\) argument must be a string or a real number, not 'NoneType'"),
    ("v-hex", lambda row: {**row, "v": row["v"][:1] + ["0x10"] + row["v"][2:]},
     r"\.v: could not convert string to float: '0x10'"),
    ("v-nested", lambda row: {**row, "v": row["v"][:1] + [["1"]] + row["v"][2:]},
     r"\.v: float\(\) argument must be a string or a real number, not 'list'"),
]


class TestMalformedRowsInBlocks:
    """A level-2 walk has 16 atoms of 9 cells; blocks of 4 rows put atom 14
    inside the last block, two rows past its start."""

    def read_with(self, tmp_path, monkeypatch, edit, atom):
        monkeypatch.setattr(sio, "BLOCK_CELLS", 4 * 9)
        path = walk_file(tmp_path, level=2)
        with open(path) as fh:
            lines = fh.read().splitlines()
        row = edit(json.loads(lines[atom + 1]))
        lines[atom + 1] = row if isinstance(row, str) else json.dumps(row)
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        return read_ensemble(path)

    @pytest.mark.parametrize("atom", [0, 14])
    @pytest.mark.parametrize("edit, message", [case[1:] for case in MALFORMED_ROWS],
                             ids=[case[0] for case in MALFORMED_ROWS])
    def test_row_error_names_the_atom(self, tmp_path, monkeypatch, edit, message, atom):
        with pytest.raises(ParameterError, match=rf"^atom {atom}{message}"):
            self.read_with(tmp_path, monkeypatch, edit, atom)

    def test_entries_past_64_bits_rejected(self, tmp_path, monkeypatch):
        # the same probability with numerator and denominator times 2^64:
        # every row check passes, but the block conversion takes 64-bit entries only
        def edit(row):
            return {**row, "p": [row["p"][0] << 64, row["p"][1] + 64]}

        with pytest.raises(ParameterError, match=r"^atoms 12-15\.p: entries must fit in 64-bit integers"):
            self.read_with(tmp_path, monkeypatch, edit, 14)

    @pytest.mark.parametrize("atom", [0, 14])
    @pytest.mark.parametrize("one", [1.0, True], ids=["float", "bool"])
    def test_innovations_equal_to_one_accepted(self, tmp_path, monkeypatch, one, atom):
        def edit(row):
            return {**row, "xi": [one if v == 1 else v for v in row["xi"]]}

        data = self.read_with(tmp_path, monkeypatch, edit, atom)
        reference = read_ensemble(walk_file(tmp_path, name="plain.jsonl", level=2))
        assert np.array_equal(data.xi, reference.xi)
        assert np.array_equal(data.values, reference.values)


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
    @pytest.mark.parametrize("seed", range(4))
    def test_ensemble_rows_match_reference(self, tmp_path, monkeypatch, seed, block_cells):
        monkeypatch.setattr(sio, "BLOCK_CELLS", block_cells)
        rng = np.random.default_rng(seed)
        n_atoms, n_values = 64, 5
        # distinct dyadic probabilities with several denominators, summing to 1
        cuts = np.sort(rng.choice(np.arange(1, 2**12), n_atoms - 1, replace=False))
        probs = np.diff(np.concatenate([[0], cuts, [2**12]])) / 2**12
        values = random_floats(rng, (n_atoms, n_values))
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

    # the summary mean of random bit patterns overflows to nan on both sides
    @pytest.mark.filterwarnings("ignore:overflow|invalid value:RuntimeWarning")
    @pytest.mark.parametrize("n_rows", [1024, 1025])
    def test_array_payload_matches_reference(self, n_rows):
        arr = random_floats(np.random.default_rng(n_rows), (n_rows, 17))
        got, want = array_payload(arr), reference_payload(arr)
        assert first_mismatch(got, want) is None  # a short message when it fails
        assert canonical(got) == canonical(want)

    def test_index_payload_matches_reference(self):
        idx = np.random.default_rng(0).integers(-(2**40), 2**40, 1025)
        for part in (idx[:1024], idx):
            out = index_payload(part)
            assert out["sha256"] == hashlib.sha256(",".join(str(int(v)) for v in part).encode()).hexdigest()
            assert out.get("data") == ([int(v) for v in part] if part.size <= 1024 else None)


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
    @pytest.mark.parametrize("command", ["decompose", "probe"])
    def test_rejects_non_adapted_source(self, tmp_path, capsys, command, col):
        """decompose and probe reject the file at the same boundary as detect."""
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

    def test_detect_csv_series(self, tmp_path):
        src = str(tmp_path / "walk.jsonl")
        report = str(tmp_path / "report.json")
        csv = str(tmp_path / "series.csv")
        main(["generate", "--kind", "rademacher_bm", "--level", "2", "--out", src])
        rc = main(["detect", src, "--out", report, "--csv", csv])
        assert rc == 0
        with open(csv) as fh:
            rows = fh.read().splitlines()
        assert rows[0] == "t,mean_abs_A,mean_M_sq"
        assert len(rows) == 1 + 5
        first = rows[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[1]) == pytest.approx(0.0, abs=TOL)

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

    def test_probe_output(self, tmp_path, capsys):
        src = str(tmp_path / "walk.jsonl")
        out = str(tmp_path / "probe.json")
        main(["generate", "--kind", "rademacher_bm", "--level", "1", "--out", src])
        rc = main(["probe", src, "--delta", "0.05", "--steps", "30", "--out", out])
        lines = capsys.readouterr().out
        assert rc == 0
        assert "continuity probe" in lines
        assert "k=  1" in lines
        with open(out) as fh:
            doc = json.load(fh)
        assert doc["format"] == "semimart-probe-1"
        stats = [float(v) for v in doc["stats"]]
        assert len(stats) == 30
        assert all(a >= b for a, b in zip(stats, stats[1:]))
        assert stats[-1] == 0.0

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
