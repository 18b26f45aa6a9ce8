"""The names the benchmark in perfbench/ relies on.

perfbench/spans.py wraps semimart's module attributes by name, and
perfbench/op.py reads every source through the `EnsembleProcess` name;
a rename inside the package would break the benchmark without failing
any other test.  spans.py is loaded by path, so nothing under perfbench/
is imported as a package or changed.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

import semimart
from semimart.generators import GeneratorSpec, generate
from semimart.io import read_ensemble, write_ensemble

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = load_spans()


@pytest.mark.parametrize(
    "owner, attr",
    [(owner, attr) for owner, attr, _ in SPANS.LAYER_WRAPS + SPANS.VERIFY_WRAPS],
    ids=lambda x: x,
)
def test_wrapped_attribute_resolves(owner, attr):
    assert callable(getattr(SPANS._owner(owner), attr))


@pytest.mark.parametrize(
    "fields",
    [
        dict(kind="rademacher_bm", level=2),
        dict(kind="deterministic_drift", level=2),
        dict(kind="rl_fractional", level=3, mode="ensemble", paths=16),
    ],
    ids=lambda f: f"{f['kind']}-{f.get('mode', 'exact_tree')}",
)
def test_sources_are_ensemble_processes(tmp_path, fields):
    src = generate(GeneratorSpec(**fields))
    path = str(tmp_path / "source.jsonl")
    write_ensemble(path, src.spec, src.space.probs, src.xi, src.values)
    for s in (src, read_ensemble(path).to_source()):
        assert isinstance(s, semimart.EnsembleProcess)
        assert s.space.probs.shape == (s.values.shape[0],)
        assert s.xi is None or s.xi.shape[0] == s.values.shape[0]
        assert np.array_equal(s.process.values, s.values)
