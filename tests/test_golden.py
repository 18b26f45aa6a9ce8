"""Golden corpus: pinned ensemble files and report bodies.

Each case generates a source, writes it, reads it back and runs
`detect`; the written file and the canonical report body must hash to
the values pinned here, and the verdict must be the pinned one.  A
change that alters any of these bytes on purpose says so and updates
the hashes together with the reason.
"""

import hashlib
import json

import pytest

from semimart.generators import EnsembleProcess, GeneratorSpec, generate
from semimart.io import read_ensemble, report_body, write_ensemble
from semimart.pipeline import DetectConfig, detect

# name -> (spec fields, detect levels, verdict, ensemble sha256, body sha256)
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


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_case(tmp_path, fields, levels):
    """(verdict kind, ensemble sha256, canonical body sha256) for one case."""
    spec = GeneratorSpec(seed=1, **fields)
    result = generate(spec)
    if isinstance(result, EnsembleProcess):
        probs, xi, values = result.space.probs, result.xi, result.values
    else:
        space, S = result
        probs, xi, values = space.probs, space.innovations, S.values
    path = tmp_path / "source.jsonl"
    write_ensemble(str(path), spec, probs, xi, values)
    data = read_ensemble(str(path))
    config = DetectConfig(levels=levels)
    verdict = detect(data.to_source(), config)
    body = json.dumps(report_body(data, config, verdict), sort_keys=True, separators=(",", ":"))
    return verdict.kind, _sha(path.read_bytes()), _sha(body.encode())


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_case(tmp_path, name):
    fields, levels, kind, file_sha, body_sha = CASES[name]
    assert run_case(tmp_path, fields, levels) == (kind, file_sha, body_sha)
