"""One Source type for generated and file-read processes.

`generate` and `EnsembleData.to_source` return the same `Source`: the
spec, the atom probabilities, the innovation rows and the path values.
Its filtration is rebuilt from the innovations, and its process is
checked for adaptedness once, where it enters the pipeline.
"""

import json
from dataclasses import replace

import numpy as np
import pytest

from semimart.errors import ParameterError
from semimart.generators import KINDS, GeneratorSpec, Source, _empirical_labels, generate
from semimart.io import fmt17, read_ensemble, report_body, write_ensemble
from semimart.pipeline import DetectConfig, detect
from semimart.space import tree_innovations
from helpers import binary_tree_space

SPECS = [
    dict(kind=kind, level=3, seed=2) for kind in KINDS
] + [
    dict(kind=kind, level=3, seed=2, mode="ensemble", paths=64)
    for kind in KINDS if kind != "deterministic_drift"
]


def spec_id(fields) -> str:
    return f"{fields['kind']}-{fields.get('mode', 'exact_tree')}"


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def first_seen_ids(labels: np.ndarray) -> np.ndarray:
    """Each row's cell ids renumbered in order of first appearance, so two
    label arrays with the same partitions compare equal."""
    out = np.empty_like(labels)
    for j, row in enumerate(labels):
        _, first, inverse = np.unique(row, return_index=True, return_inverse=True)
        out[j] = np.argsort(np.argsort(first))[inverse]
    return out


def written(tmp_path, src: Source) -> str:
    path = str(tmp_path / "source.jsonl")
    write_ensemble(path, src.spec, src.probs, src.xi, src.values)
    return path


@pytest.mark.parametrize("fields", SPECS, ids=spec_id)
def test_generated_and_file_read_sources_agree(tmp_path, fields):
    src = generate(GeneratorSpec(**fields))
    data = read_ensemble(written(tmp_path, src))
    back = data.to_source()

    assert back.spec == src.spec
    assert np.array_equal(back.probs, src.probs)
    assert (back.xi is None) == (src.xi is None) == (src.spec.kind == "deterministic_drift")
    if src.xi is not None:
        assert np.array_equal(back.xi, src.xi)
    assert np.array_equal(back.values, src.values)
    assert ((back.drift_increments(1) is None) == (src.drift_increments(1) is None)
            == (src.spec.mode == "exact_tree"))

    assert np.array_equal(first_seen_ids(back.space.labels), first_seen_ids(src.space.labels))
    if src.spec.mode == "exact_tree" and src.xi is not None:
        tree = binary_tree_space(src.spec.level)
        assert np.array_equal(src.xi, tree_innovations(src.spec.level))
        assert np.array_equal(first_seen_ids(src.space.labels), first_seen_ids(tree.labels))

    config = DetectConfig()
    bodies = [canonical(report_body(data, config, detect(s, config))) for s in (src, back)]
    assert bodies[0] == bodies[1]


@pytest.mark.parametrize("seed", range(5))
def test_labels_are_sorted_prefix_ranks(seed):
    """Cell ids against a per-time reference: the rank of each path's
    prefix among the distinct prefixes, sorted."""
    rng = np.random.default_rng(seed)
    paths = int(rng.integers(1, 200))
    xi = np.where(rng.random((paths, 16)) < rng.uniform(0.1, 0.9), 1, -1).astype(np.int8)
    expected = np.zeros((17, paths), dtype=np.int64)
    for j in range(17):
        prefixes = [tuple(row[:j].tolist()) for row in xi]
        rank = {p: i for i, p in enumerate(sorted(set(prefixes)))}
        expected[j] = [rank[p] for p in prefixes]
    assert np.array_equal(_empirical_labels(xi), expected)


def test_process_is_built_once():
    src = generate(GeneratorSpec(kind="rademacher_bm", level=2))
    assert src.process is src.process
    assert src.process.space is src.space


PEEK_SPECS = [
    dict(kind="rademacher_bm", level=2, seed=1),
    dict(kind="rl_fractional", level=3, seed=1, mode="ensemble", paths=64),
]


def peek_message(src: Source, col: int) -> str:
    """What the rejection of the last atom's v[col] must name: the atom,
    the column and the time index."""
    return rf"atom {src.probs.size - 1}\.v\[{col}\] = .* at time index {col}: the source is not adapted"


def peeked(src: Source, col: int) -> Source:
    """The source with the last atom's v[col] moved alone inside its cell
    (col 0: S_0 is not F_0-measurable)."""
    values = src.values.copy()
    values[-1, col] += 0.01
    return replace(src, values=values)


@pytest.mark.parametrize("col", [1, 0])
@pytest.mark.parametrize("fields", PEEK_SPECS, ids=spec_id)
def test_future_peeking_values_rejected_at_process(fields, col):
    src = generate(GeneratorSpec(**fields))
    with pytest.raises(ParameterError, match=peek_message(src, col)):
        peeked(src, col).process


@pytest.mark.parametrize("col", [1, 0])
@pytest.mark.parametrize("fields", PEEK_SPECS, ids=spec_id)
def test_future_peeking_values_rejected_by_detect(fields, col):
    src = generate(GeneratorSpec(**fields))
    with pytest.raises(ParameterError, match=peek_message(src, col)):
        detect(peeked(src, col))


@pytest.mark.parametrize("col", [1, 0])
@pytest.mark.parametrize("fields", PEEK_SPECS, ids=spec_id)
def test_future_peeking_file_rejected_at_to_source(tmp_path, fields, col):
    src = generate(GeneratorSpec(**fields))
    path = written(tmp_path, src)
    with open(path) as fh:
        lines = fh.read().splitlines()
    row = json.loads(lines[-1])
    row["v"][col] = fmt17(float(row["v"][col]) + 0.01)
    lines[-1] = json.dumps(row)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")

    with pytest.raises(ParameterError, match=peek_message(src, col)):
        read_ensemble(path).to_source().process
