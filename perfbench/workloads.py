"""Workloads and metrics of the semimart benchmark.

This module is the one place that defines them: run.py measures what it
lists, and `python3 perfbench/run.py --write-spec` writes BENCHMARK.json
from it.  BENCHMARK.json admits only a name and a reason per workload and
a name, unit and direction per metric, so the inputs, expected verdicts
and the layer -> end-to-end mapping live here.
"""

from dataclasses import dataclass

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
# Each run cycles through generate, detect, generate, verify, generate
# while the next operation is expected to end within this many seconds.
# Wall times on a shared 2-CPU machine drift by 10-30 % over tens of
# seconds, so a run must be long to be steady.  Comparing two commits
# takes 4 + 22 * (workloads) runs within 3420 s, which leaves about 71 s
# per run for two workloads and 48 s for three.
RUN_SECONDS = 60
# the workloads BENCHMARK.json lists; tree-lunch runs on request
# (--workload tree-lunch or all) but does not fit in that time
BENCHMARK_WORKLOADS = ("tree-cert", "ensemble-L8")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    spec: dict  # GeneratorSpec fields; the seed comes from --seed
    levels: tuple | None  # DetectConfig.levels; None means 1..level
    expect: str  # verdict kind every operation must reach
    smoke_spec: dict  # level-2 overrides of spec for the smoke run
    smoke_levels: tuple | None


WORKLOADS = (
    Workload(
        name="tree-cert",
        why="L4 exact tree (65,536 atoms), certificate: the only workload that runs the "
        "continuous stage, komlos extraction, assembly and the large report",
        spec={"kind": "rademacher_bm", "level": 4, "mode": "exact_tree"},
        levels=None,
        expect="certificate",
        smoke_spec={"level": 2},
        smoke_levels=None,
    ),
    Workload(
        name="tree-lunch",
        why="same L4 tree and discrete stage as tree-cert but a free-lunch verdict, so "
        "detect time goes to integrands; the pair isolates the two branches",
        spec={"kind": "rl_fractional", "level": 4, "mode": "exact_tree", "hurst": 0.75},
        levels=None,
        expect="free_lunch",
        smoke_spec={"level": 2},
        smoke_levels=None,
    ),
    Workload(
        name="ensemble-L8",
        why="deep time: 257 times, 4,096 sampled paths, empirical-label filtration and "
        "the oracle decomposer; the only workload whose input the seed changes",
        spec={
            "kind": "rl_fractional",
            "level": 8,
            "mode": "ensemble",
            "paths": 4096,
            "hurst": 0.75,
        },
        levels=(5, 6, 7, 8),
        expect="free_lunch",
        smoke_spec={"level": 2, "paths": 256},
        smoke_levels=(1, 2),
    ),
)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float | None = None  # end-to-end only: allowed worsening, share of median
    moves: str = ""  # per-layer only: end-to-end metrics it should move
    where: str = ""  # per-layer only: workloads where it should move


END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("generate_s", "s", "lower", 0.25),
    Metric("detect_s", "s", "lower", 0.25),
    Metric("verify_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.1),
)

_DETECT = "detect_s, verify_s"
PER_LAYER = (
    Metric("generators.generate_s", "s", "lower", moves="generate_s", where="ensemble-L8"),
    Metric("io.write_ensemble_s", "s", "lower", moves="generate_s", where="all"),
    Metric("io.ensemble_bytes", "bytes", "lower", moves="generate_s (must stay fixed)",
           where="all"),
    Metric("io.read_ensemble_s", "s", "lower", moves="setup_s, verify_s", where="all"),
    Metric("io.read_report_s", "s", "lower", moves="verify_s", where="all"),
    Metric("io.report_body_s", "s", "lower", moves=_DETECT, where="tree-cert"),
    Metric("io.write_report_s", "s", "lower", moves="detect_s", where="tree-cert"),
    Metric("io.report_bytes", "bytes", "lower", moves=_DETECT, where="tree-cert"),
    Metric("space.filtration_s", "s", "lower", moves="setup_s, peak_rss_mb",
           where="ensemble-L8"),
    Metric("space.stop_process_calls", "count", "lower", moves=_DETECT, where="tree-cert"),
    Metric("space.stop_process_s", "s", "lower", moves=_DETECT, where="tree-cert"),
    Metric("space.cell_average_calls", "count", "lower", moves=_DETECT, where="all"),
    Metric("space.cell_average_s", "s", "lower", moves=_DETECT, where="all"),
    Metric("space.check_stopping_time_s", "s", "lower", moves=_DETECT, where="tree-cert"),
    Metric("doob.discrete_stage_s", "s", "lower", moves=_DETECT, where="all"),
    Metric("doob.decompose_calls", "count", "lower", moves=_DETECT, where="all"),
    Metric("doob.ladder_rungs", "count", "lower", moves=_DETECT, where="all"),
    Metric("komlos.extract_s", "s", "lower", moves=_DETECT,
           where="tree-cert (about 0.04 s: a komlos-only change cannot show)"),
    Metric("komlos.min_norm_point_calls", "count", "lower", moves=_DETECT, where="tree-cert"),
    Metric("komlos.steps", "count", "lower", moves=_DETECT, where="tree-cert"),
    Metric("pipeline.continuous_stage_s", "s", "lower", moves=_DETECT, where="tree-cert"),
    Metric("pipeline.assemble_s", "s", "lower", moves=_DETECT, where="tree-cert"),
    Metric("pipeline.free_lunch_s", "s", "lower", moves=_DETECT,
           where="tree-lunch, ensemble-L8"),
    Metric("pipeline.detect_self_s", "s", "lower", moves=_DETECT, where="all"),
    Metric("integrands.integral_process_calls", "count", "lower",
           moves=_DETECT + ", peak_rss_mb", where="tree-lunch, ensemble-L8"),
    Metric("integrands.integral_pairs", "count", "lower", moves=_DETECT,
           where="tree-lunch, ensemble-L8"),
    Metric("integrands.integral_useful_ratio", "ratio", "higher", moves=_DETECT,
           where="tree-lunch, ensemble-L8"),
    Metric("integrands.integral_process_s", "s", "lower",
           moves=_DETECT + ", peak_rss_mb", where="tree-lunch, ensemble-L8"),
    Metric("integrands.integrand_builds", "count", "lower", moves=_DETECT,
           where="tree-lunch, ensemble-L8"),
    Metric("integrands.integrand_build_s", "s", "lower", moves=_DETECT,
           where="tree-lunch, ensemble-L8"),
    Metric("mem.rss_after_read_mb", "MB", "lower", moves="peak_rss_mb", where="ensemble-L8"),
    Metric("mem.rss_after_setup_mb", "MB", "lower", moves="peak_rss_mb", where="ensemble-L8"),
    Metric("mem.rss_after_detect_mb", "MB", "lower", moves="peak_rss_mb", where="ensemble-L8"),
    Metric("trace.overhead_s", "s", "lower", moves="none (traced minus untraced detect_s)",
           where="all"),
    Metric("trace.detect_self_cover", "ratio", "higher",
           moves="none (layer self times / traced detect wall time; must be 0.95-1.05)",
           where="all"),
    Metric("trace.verify_self_cover", "ratio", "higher",
           moves="none (layer self times / traced verify wall time; must be 0.95-1.05)",
           where="all"),
)


def workload(name: str) -> Workload:
    for w in WORKLOADS:
        if w.name == name:
            return w
    raise KeyError(name)


def benchmark_json() -> dict:
    """The contents of BENCHMARK.json, with exactly the keys it admits."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS
                      if w.name in BENCHMARK_WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER],
    }
