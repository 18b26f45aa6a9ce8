"""Tests for the file formats and the command-line entry points."""

import hashlib
import json
from fractions import Fraction
import os

import numpy as np
import pytest

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

    @pytest.mark.parametrize("col", [1, 0])
    def test_detect_rejects_non_adapted_source(self, tmp_path, capsys, col):
        """Raising atom 0's v[col] by 0.01 breaks F_t-measurability at time
        index col (col 0: S_0 is not F_0-measurable); detect exits 2."""
        src = str(tmp_path / "walk.jsonl")
        main(["generate", "--kind", "rademacher_bm", "--level", "2", "--seed", "1", "--out", src])
        with open(src) as fh:
            lines = fh.read().splitlines()
        row = json.loads(lines[1])
        row["v"][col] = fmt17(float(row["v"][col]) + 0.01)
        lines[1] = json.dumps(row)
        with open(src, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        capsys.readouterr()

        rc = main(["detect", src, "--out", str(tmp_path / "report.json")])
        err = capsys.readouterr().err
        assert rc == 2
        assert f"atom 0.v[{col}]" in err and f"time index {col}" in err
        assert "not adapted" in err

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
