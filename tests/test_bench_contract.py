"""The names the benchmark in perfbench/ relies on.

perfbench/spans.py wraps semimart's module attributes by name, and
perfbench/op.py reads every source through the `EnsembleProcess` name;
a rename inside the package would break the benchmark without failing
any other test, and a call that goes around a wrapped binding would
only thin out the traced run's layer cover.  spans.py is loaded by
path, so nothing under perfbench/ is imported as a package or changed.
"""

import collections
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

import semimart
import semimart.doob
import semimart.generators
from semimart.cli import main
from semimart.generators import GeneratorSpec, generate
from semimart.integrands import SimpleIntegrand
from semimart.io import read_ensemble, write_ensemble
from semimart.pipeline import DetectConfig, detect
from semimart.space import StoppingTime

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


@pytest.mark.parametrize("hurst", [0.75, 0.25], ids=["drift-side", "qv-side"])
def test_free_lunch_strategies_read_as_per_atom_meshes(hurst):
    """op.py and checks.py read each strategy's mesh as np.column_stack of
    the entries' per-atom indices, however the integrand stores it."""
    source = generate(GeneratorSpec(kind="rl_fractional", level=3, hurst=hurst))
    verdict = detect(source, DetectConfig())
    assert verdict.kind == "free_lunch"
    n_atoms = source.space.n_atoms
    for H in verdict.strategies.elements:
        assert all(isinstance(t, StoppingTime) and t.index.shape == (n_atoms,) for t in H.mesh)
        mesh = np.column_stack([t.index for t in H.mesh])
        assert np.array_equal(mesh, np.broadcast_to(H._eff, mesh.shape))


def test_grid_mesh_build_runs_the_constructor_once(monkeypatch):
    """spans.py times integrand builds by wrapping SimpleIntegrand.__post_init__."""
    calls = []
    post_init = SimpleIntegrand.__post_init__
    monkeypatch.setattr(SimpleIntegrand, "__post_init__", lambda self: calls.append(post_init(self)))
    space = generate(GeneratorSpec(kind="rademacher_bm", level=2)).space
    SimpleIntegrand.from_grid_mesh(space, [0, 2, 4], np.ones((space.n_atoms, 2)))
    assert len(calls) == 1


@pytest.mark.parametrize(
    "fields, levels",
    [(dict(kind="rademacher_bm", level=2), (1, 2)),
     (dict(kind="rl_fractional", level=4, mode="ensemble", paths=64, seed=3), (2, 3, 4))],
    ids=["tree", "ensemble"],
)
def test_detect_decomposes_once_per_level_under_the_wrapped_names(monkeypatch, fields, levels):
    """spans.py counts `doob.decompose` calls through both names it wraps;
    the package must decompose through `semimart.doob.doob_decompose`
    alone, once per level, for the count to be the number of levels."""
    calls = []
    for module, attr in ((semimart.doob, "doob_decompose"),
                         (semimart.generators, "decompose_with_increments")):
        original = getattr(module, attr)

        def counted(S, n, *args, original=original, attr=attr):
            calls.append((attr, n))
            return original(S, n, *args)

        monkeypatch.setattr(module, attr, counted)
    detect(generate(GeneratorSpec(**fields)), DetectConfig(levels=levels))
    assert calls == [("doob_decompose", n) for n in levels]


# kept in the package only for the benchmark's wraps; the package never calls them
BENCH_ONLY = {
    ("semimart.pipeline", "integrate"),
    ("semimart.pipeline", "vr_metric"),
    ("semimart.generators", "decompose_with_increments"),
}


def counted(fn, calls: collections.Counter, key):
    def wrapper(*args, **kwargs):
        calls[key] += 1
        return fn(*args, **kwargs)

    return wrapper


def test_every_wrapped_binding_is_called(tmp_path, monkeypatch):
    """A level-2 certificate detect, a drift-side free-lunch detect and a
    verify call every binding that spans.py wraps, the bench-only names
    aside: a helper that routes around one would drop its layer's time."""
    wrapped = {(owner, attr) for owner, attr, _ in SPANS.LAYER_WRAPS + SPANS.VERIFY_WRAPS}
    calls = collections.Counter()
    for owner, attr in wrapped:
        obj = SPANS._owner(owner)
        monkeypatch.setattr(obj, attr, counted(getattr(obj, attr), calls, (owner, attr)))
    reports = []
    for fields, verdict in ((dict(kind="rademacher_bm", level=2), "certificate"),
                            (dict(kind="rl_fractional", level=3, hurst=0.75, seed=1), "free_lunch")):
        spec = GeneratorSpec(**fields)
        src = generate(spec)
        path = str(tmp_path / f"{spec.kind}.jsonl")
        write_ensemble(path, spec, src.probs, src.xi, src.values)
        reports.append(str(tmp_path / f"{spec.kind}.json"))
        assert main(["detect", path, "--out", reports[-1]]) == 0
        assert json.loads(Path(reports[-1]).read_text())["body"]["verdict"] == verdict
    assert main(["verify", reports[0]]) == 0
    assert wrapped - set(calls) <= BENCH_ONLY
