"""Golden corpus: pinned ensemble files and report bodies.

Each case generates a source, writes it, reads it back and runs
`detect`; the written file and the canonical report body must hash to
the values pinned here, and the verdict must be the pinned one.  A
change that alters any of these bytes on purpose says so and updates
the hashes together with the reason.

Every conclusive verdict is also rechecked from raw arrays by
perfbench/checks.py, which shares no code with the package; it is
loaded by path, so nothing under perfbench/ is imported as a package.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from semimart.generators import GeneratorSpec, generate
from semimart.io import read_ensemble, report_body, write_ensemble
from semimart.pipeline import DetectConfig, detect

# name -> (spec fields, detect levels, verdict, ensemble sha256, body sha256
#          [, transform of the generated values before they are written])
CASES = {
    "rademacher_bm-L2": (
        dict(kind="rademacher_bm", level=2), None, "certificate",
        "d924ba43e0fd1caaeb9beb081a7f2969b00a7d848803512ba19dd031a4723555",
        "bdd74cf85b05800db1212417d427c07a40ceafced7af27f3bb830bf3af2192bc",
    ),
    "rademacher_bm-L3": (
        dict(kind="rademacher_bm", level=3), None, "certificate",
        "c2ef293ced008879e0130a5bd69e89c2d466ee6efe8e291325efee3e493f3b41",
        "e5ec772a50df248d421e32de753d9b5a944e979cd1a11afdcbfe164d1cd4f935",
    ),
    # 65,536 atoms: the one case whose M and A payloads are summarized
    # behind a hash instead of inlined
    "rademacher_bm-L4": (
        dict(kind="rademacher_bm", level=4), None, "certificate",
        "57e249291338ca45a3c4de899248a0284c397f8ce3b36ffc3d91fe244c192a35",
        "b7dbb93981f56546fed017c908baeff84d9d87182b9545ebc84a9d8b15b20886",
    ),
    # values x 3 + 0.5 leave [-1, 1]: the certificate localizes at lambda,
    # shifts by x0 = 0.5 and normalizes, so alpha is not constant
    "rademacher_bm-L3-localized": (
        dict(kind="rademacher_bm", level=3), None, "certificate",
        "c6321fc4197c22efe39f52bb1477745ddb334c419c6b635c0f282a9b8c0cb352",
        "0c7d0a5a3bb5cee7c1249d63878718551accfbdf4ac20175c7da98bcc547dcdb",
        lambda values: values * 3.0 + 0.5,
    ),
    "drifted-L2": (
        dict(kind="drifted", level=2), None, "certificate",
        "e0e99a430e18a316bb8b59e8a2688081b1a6207c092da5eccd7c402eec02612a",
        "b0200395e12f1093d871df57ecf4e1ff9da42616c8997b01932b75cc7db56e8a",
    ),
    "drifted-L3": (
        dict(kind="drifted", level=3), None, "certificate",
        "1a09c8d9bbd239de01b85e74599a86f871764bf0c8cd3c10fbc176fbab1d5d15",
        "f3bb1c2b4df4fd17fb88bf911f66d56f4f3df650afa6c9cab7edd5ef7937f6e2",
    ),
    "jump-L2": (
        dict(kind="jump", level=2), None, "certificate",
        "5b86cec743bc41648f716f5db60126f8d083b0cc4dc1b494ab694362f0ef1747",
        "2cb2d86f4d4eb97d6e6fa6efa2021ebba6d4e2e45d921129de535ca1208113c2",
    ),
    "jump-L3": (
        dict(kind="jump", level=3), None, "certificate",
        "57aaba899022de47a9a20712efc0b644dc74c04374ab2f8518b2537088778693",
        "ce359002bebabcd57609d37e5fcafa11d10eced98088de895e66cc87561941e1",
    ),
    "deterministic_drift-L2": (
        dict(kind="deterministic_drift", level=2), None, "certificate",
        "e0fff23c5ccbcd410eb90048765600ddd6c148ded4851fe61af17e74a6e0b748",
        "2acf903f7205eaf74b050849717c83bf833ed38fbd35a2166eb260496fad26e6",
    ),
    "deterministic_drift-L3": (
        dict(kind="deterministic_drift", level=3), None, "certificate",
        "b28133ebac489065c59cc78f811c22cb3a1008579889ea3228c3d01e9e3c693f",
        "b673d67dc4bb29ea509fc8a842f0e0f62075de6f8ba4b9ac22e1fae606766e6a",
    ),
    "rl_fractional-H0.5-L2": (
        dict(kind="rl_fractional", level=2, hurst=0.5), None, "certificate",
        "99d73c75a8ba89ccd95e58f8f2c40cb662b112376501f2e6db8205b2376f3e5a",
        "79af2d9357b54cb43aa0fd8f793134fb300d8a5807354fb1e04a068379e8ec87",
    ),
    "rl_fractional-H0.5-L3": (
        dict(kind="rl_fractional", level=3, hurst=0.5), None, "certificate",
        "f90a24783def878813bd5e8142cf347bcadc235669642a6ad2cb8b51e2d24796",
        "f5d9d874ade3a7690cc67d0b7cc4cc5e6ce49e73df45c5a5f2578e42b9cc2499",
    ),
    "rl_fractional-H0.75-L3": (
        dict(kind="rl_fractional", level=3, hurst=0.75), None, "free_lunch",
        "3b9b21815ff2a259eb64571f4d07fb125f620c56a7d6564fcfabbe81e6ad68f6",
        "de83ece61d7fc288b0c9ef93b780a10af1e718b79cd99a989675546df011fffa",
    ),
    "rl_fractional-ens-L6": (
        dict(kind="rl_fractional", level=6, mode="ensemble", paths=1024), (3, 4, 5, 6), "free_lunch",
        "9fc82185ec3806dcf592e7082c2c1cddfe1e3dd69b0eb449aec1020117b0bfdc",
        "3292b605b098c04590d9f5ea0b278036bcb9d7e9807177d8133791efe5a8924e",
    ),
    # 257 grid times on the drift side: every witness is a grid mesh
    # whose maximal-inequality truncation never bites
    "rl_fractional-ens-L8": (
        dict(kind="rl_fractional", level=8, hurst=0.75, mode="ensemble", paths=1024), (5, 6, 7, 8),
        "free_lunch",
        "31e375c3d9c6437a9f90a4e351afc89bf80b333f9b5ed187ccd5676410e8363b",
        "4e8ca907ed7084dd2c138b9c6382cfacb77c9f45cac86618012ec6ab4ccc842c",
    ),
    # H = 1/4 fails on the quadratic side (qv-growth), so these two pin
    # the free-lunch branch that builds its witnesses from the qv strategy
    "rl_fractional-H0.25-L3": (
        dict(kind="rl_fractional", level=3, hurst=0.25), None, "free_lunch",
        "5bbbdead219d5c5be274815254c09ff178a6f45c7bb4030dde5fab22ce405cab",
        "b88830940b604874d0dd69d3891e2abff9407ee8b5c563791cddabba1b820c90",
    ),
    "rl_fractional-H0.25-ens-L6": (
        dict(kind="rl_fractional", level=6, hurst=0.25, mode="ensemble", paths=1024), (3, 4, 5, 6),
        "free_lunch",
        "ce88a97efbfb8a576e911f7d2686447459704113dae763016c3c8fb1437dad3e",
        "76ab7f6fcad2ed507bf08f1158c81c13f48df6ee616c38c7a21ac508e0d60726",
    ),
    "rademacher_bm-ens-L5": (
        dict(kind="rademacher_bm", level=5, mode="ensemble", paths=512), None, "inconclusive",
        "a7484c1c8f9b8799c1a03a2929544227edb70759537d77c7c189b6d3f6f9f47b",
        "fb4a296cbb61456993067119d6aaa7b30cca00e683b95acc33d37c83a82979f1",
    ),
    "drifted-ens-L5": (
        dict(kind="drifted", level=5, mode="ensemble", paths=256), None, "inconclusive",
        "70c1cb7b32bfa509127e897dc2e8ba2fef0fd70b42f12b44527d604b96727053",
        "36a4ca909360658f874116021e118a44d4862a2b491018b01d2c53df3618c238",
    ),
}


CHECKS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "checks.py"


def load_checks():
    spec = importlib.util.spec_from_file_location("perfbench_checks", CHECKS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


CHECKS = load_checks()


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def detected(tmp_path, fields, levels, transform=None):
    """(file read back, config, source, verdict, file path) for one case."""
    spec = GeneratorSpec(seed=1, **fields)
    src = generate(spec)
    values = src.values if transform is None else transform(src.values)
    path = tmp_path / "source.jsonl"
    write_ensemble(str(path), spec, src.probs, src.xi, values)
    data = read_ensemble(str(path))
    config = DetectConfig(levels=levels)
    source = data.to_source()
    return data, config, source, detect(source, config), path


def run_case(tmp_path, fields, levels, transform=None):
    """(verdict kind, ensemble sha256, canonical body sha256) for one case."""
    data, config, _, verdict, path = detected(tmp_path, fields, levels, transform)
    body = json.dumps(report_body(data, config, verdict), sort_keys=True, separators=(",", ":"))
    return verdict.kind, _sha(path.read_bytes()), _sha(body.encode())


def recheck_errors(source, verdict) -> list:
    """The rules of perfbench/checks.py that the verdict breaks, read
    from the source's and the verdict's raw arrays as the benchmark reads them."""
    space, S = source.space, source.process
    if verdict.kind == "certificate":
        return CHECKS.certificate_errors(
            S.values, space.probs, space.labels, verdict.M.values, verdict.A.values,
            verdict.alpha.index, verdict.constants["tv_bound"],
        )
    strategies = [
        (np.column_stack([tau.index for tau in H.mesh]), H.weights)
        for H in verdict.strategies.elements
    ]
    return CHECKS.free_lunch_errors(S.values, space.probs, strategies, verdict.alpha_star)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_case(tmp_path, name):
    fields, levels, kind, file_sha, body_sha, *transform = CASES[name]
    assert run_case(tmp_path, fields, levels, *transform) == (kind, file_sha, body_sha)


@pytest.mark.parametrize("name", sorted(name for name, case in CASES.items() if case[2] != "inconclusive"))
def test_golden_verdict_passes_the_independent_recheck(tmp_path, name):
    fields, levels, kind, _, _, *transform = CASES[name]
    _, _, source, verdict, _ = detected(tmp_path, fields, levels, *transform)
    assert verdict.kind == kind
    assert recheck_errors(source, verdict) == []


def test_the_recheck_catches_a_corrupted_certificate():
    """A moved M breaks M + A = S^alpha, a non-zero A_0 breaks A_0 = 0,
    and a bound below TV(A) breaks the variation bound; the level-2
    drifted certificate has TV(A) > 0, so the last is no sign slip."""
    src = generate(GeneratorSpec(kind="drifted", level=2, seed=1))
    v = detect(src, DetectConfig())
    assert v.kind == "certificate"
    args = (src.process.values, src.space.probs, src.space.labels, v.M.values, v.A.values, v.alpha.index,
            v.constants["tv_bound"])
    assert CHECKS.certificate_errors(*args) == []
    M = v.M.values.copy()
    M[0, -1] += 1e-6
    assert any("M + A" in e for e in CHECKS.certificate_errors(*args[:3], M, *args[4:]))
    A = v.A.values.copy()
    A[:, 0] += 1e-6
    assert any("A_0" in e for e in CHECKS.certificate_errors(*args[:4], A, *args[5:]))
    tv = float(np.abs(np.diff(v.A.values, axis=1)).sum(axis=1).max())
    assert tv > 0
    assert any("TV(A)" in e for e in CHECKS.certificate_errors(*args[:6], 0.5 * tv))
