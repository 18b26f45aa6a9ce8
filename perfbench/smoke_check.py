"""Tests of the benchmark itself, on the level-2 smoke versions of its workloads.

    python3 -m pytest -q perfbench/smoke_check.py

The file name keeps these out of the package's own test collection:
they start interpreters and take a few seconds.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from spans import Recorder, descendants, self_times, summarize  # noqa: E402

NAMES = [w.name for w in workloads.WORKLOADS]


def run_bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", NAMES)
def test_smoke_end_to_end(name):
    res = result_of(run_bench("--workload", name, "--smoke", "--seed", "3",
                              "--seconds", "0", "--trace", "0"))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] == 5
    assert set(res["metrics"]) == {m.name for m in workloads.END_TO_END}
    assert all(m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize("name", NAMES)
def test_smoke_trace_reports_every_layer_with_repeatable_counts(name):
    runs = [result_of(run_bench("--workload", name, "--smoke", "--seed", "5",
                                "--seconds", "0", "--trace", "1")) for _ in range(2)]
    for res in runs:
        assert res["correct"] and res["failed"] == 0
        assert set(res["metrics"]) == {m.name for m in workloads.PER_LAYER}
    counts = [{k: v["value"] for k, v in res["metrics"].items()
               if v["unit"] in ("count", "bytes")} for res in runs]
    assert counts[0] == counts[1]
    assert counts[0]["doob.decompose_calls"] > 0


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", NAMES[0], "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_benchmark_json_matches_workloads():
    with open(ROOT / "BENCHMARK.json") as fh:
        assert json.load(fh) == workloads.benchmark_json()


def _smoke_verdict(name):
    import semimart

    wl = workloads.workload(name)
    spec = semimart.GeneratorSpec(seed=1, **{**wl.spec, **wl.smoke_spec})
    src = semimart.generate(spec)
    levels = wl.smoke_levels and tuple(wl.smoke_levels)
    verdict = semimart.detect(src, semimart.DetectConfig(levels=levels))
    if isinstance(src, semimart.EnsembleProcess):
        return src.space, src.process, verdict
    return src[0], src[1], verdict


def test_certificate_recheck_catches_a_corrupted_array():
    space, S, v = _smoke_verdict("tree-cert")
    args = (S.values, space.probs, space.labels, v.M.values, v.A.values, v.alpha.index,
            v.constants["tv_bound"])
    assert checks.certificate_errors(*args) == []
    M = v.M.values.copy()
    M[0, -1] += 1e-6
    assert any("M + A" in e for e in checks.certificate_errors(S.values, *args[1:3], M, *args[4:]))
    A = v.A.values.copy()
    A[:, 0] += 1e-6
    assert any("A_0" in e for e in checks.certificate_errors(*args[:4], A, *args[5:]))
    assert any("TV(A)" in e for e in checks.certificate_errors(*args[:6], -1e-6))


@pytest.mark.parametrize("name", ["tree-lunch", "ensemble-L8"])
def test_free_lunch_recheck_agrees_with_semimart(name):
    import semimart

    space, S, v = _smoke_verdict(name)
    strategies = []
    for H in v.strategies.elements:
        mesh = np.column_stack([tau.index for tau in H.mesh])
        ours = checks.integral_paths(S.values, mesh, H.weights)
        np.testing.assert_allclose(ours, semimart.integral_process(H, S).values, atol=1e-15)
        strategies.append((mesh, H.weights))
    assert checks.free_lunch_errors(S.values, space.probs, strategies, v.alpha_star) == []
    assert checks.free_lunch_errors(S.values, space.probs, strategies[::-1], v.alpha_star)
    assert checks.free_lunch_errors(S.values, space.probs, strategies, 2.0)


def test_self_time_is_span_minus_children():
    rec = Recorder()
    spans = rec.spans
    with rec.span("root"):
        with rec.span("a"):
            with rec.span("a"):
                pass
        with rec.span("b"):
            pass
    spans[0][3:5] = [0.0, 10.0]
    spans[1][3:5] = [1.0, 5.0]
    spans[2][3:5] = [2.0, 3.0]
    spans[3][3:5] = [6.0, 9.0]
    selfs = self_times(spans)
    assert selfs == {0: 3.0, 1: 3.0, 2: 1.0, 3: 3.0}
    assert [row[0] for row in descendants(spans, 1)] == [2]
    summary = summarize(spans)
    assert summary["a"] == {"calls": 2, "total_s": 4.0, "self_s": 4.0}
