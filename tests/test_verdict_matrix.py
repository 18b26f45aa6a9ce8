"""The verdict matrix: known semimartingales and known free lunches.

Processes whose status theory settles must get the matching verdict on
the cheap inputs: a certificate on every exact tree at levels 2 and 3,
Inconclusive on a sampled ensemble (certificates are only issued on the
exact tree), and free-lunch evidence for the Riemann-Liouville
fractional walk at every Hurst index away from 1/2, in both modes.
Every certificate and every free-lunch evidence must also pass the
independent recheck from raw arrays.
"""

import pytest

from semimart.generators import GeneratorSpec, generate
from semimart.pipeline import detect
from helpers import recheck_errors

SEEDS = (1, 2, 3)
ENSEMBLE = dict(mode="ensemble", level=6, paths=1024)

SEMIMARTINGALES = {
    "rademacher_bm-0.5": dict(kind="rademacher_bm", scale=0.5),
    "rademacher_bm-1": dict(kind="rademacher_bm", scale=1.0),
    "rademacher_bm-8": dict(kind="rademacher_bm", scale=8.0),
    "drifted-mu1": dict(kind="drifted", mu=1.0),
    "drifted-mu50": dict(kind="drifted", mu=50.0),
    "jump": dict(kind="jump"),
    "deterministic_drift": dict(kind="deterministic_drift"),
    "rl_fractional-H0.5": dict(kind="rl_fractional", hurst=0.5),
}
# deterministic_drift has one path and no ensemble mode
SAMPLED_SEMIMARTINGALES = {k: v for k, v in SEMIMARTINGALES.items() if k != "deterministic_drift"}
FREE_LUNCH_HURST = (0.25, 0.4, 0.6, 0.75, 0.9)


def verdict(**spec):
    """The verdict on the generated source; a conclusive one must break no
    rule of the independent recheck."""
    source = generate(GeneratorSpec(**spec))
    result = detect(source)
    if result.kind != "inconclusive":
        assert recheck_errors(source, result) == []
    return result


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("level", (2, 3))
@pytest.mark.parametrize("case", SEMIMARTINGALES)
def test_semimartingale_tree_gets_a_certificate(case, level, seed):
    assert verdict(level=level, seed=seed, **SEMIMARTINGALES[case]).kind == "certificate"


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("case", SAMPLED_SEMIMARTINGALES)
def test_semimartingale_ensemble_is_inconclusive(case, seed):
    result = verdict(seed=seed, **ENSEMBLE, **SAMPLED_SEMIMARTINGALES[case])
    assert result.kind == "inconclusive"
    assert result.reason.startswith("all levels certified on the sampled filtration")


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("mode", ("tree-L2", "tree-L3", "ensemble-L6"))
@pytest.mark.parametrize("hurst", FREE_LUNCH_HURST)
def test_fractional_walk_off_one_half_gets_free_lunch(hurst, mode, seed):
    spec = ENSEMBLE if mode == "ensemble-L6" else dict(level=int(mode[-1]))
    assert verdict(kind="rl_fractional", hurst=hurst, seed=seed, **spec).kind == "free_lunch"
