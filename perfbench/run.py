"""semimart benchmark: time to a verdict and to re-verify it, layer by layer.

One run measures one workload.  It cycles through generate, detect,
generate, verify, generate, each operation in a fresh interpreter so each
has its own peak RSS:

  generate  generators.generate(spec) + io.write_ensemble        -> generate_s
  detect    import, read_ensemble, to_source and the lazy
            filtration/process (-> setup_s, from process start),
            then detect + report_body + write_report            -> detect_s
  verify    `semimart verify` on that report                     -> verify_s

while the next operation is expected to end within --seconds, checks every
output, and prints each metric as the median over the run's samples,
with the sample count.  The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 1 the cycles alternate untraced and traced, and the metrics
are the per-layer ones, taken from spans recorded around semimart's
module attributes (see spans.py).

    python3 perfbench/run.py --workload tree-cert --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload, one table
    python3 perfbench/run.py --workload tree-cert --smoke # level-2 version, seconds
    python3 perfbench/run.py --write-spec                 # regenerate BENCHMARK.json
"""

import argparse
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

# one BLAS thread keeps the figures steady on a shared machine; nproc is the ceiling
BLAS_THREADS = 1
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# a run must end within 180 s; leave room to report
RUN_LIMIT_S = 170.0
COVER_RANGE = (0.95, 1.05)
OUT_DIR = ROOT / ".perfbench"

# generate_s is the shortest and noisiest timing, so it gets three samples
# a cycle; every generate rewrites the source, which must come out
# byte-identical
CYCLE = ("generate", "detect", "generate", "verify", "generate")

# per-layer metric -> (operation, span name, field of that span's summary)
LAYER_SPANS = {
    "generators.generate_s": ("generate", "generators.generate", "total_s"),
    "io.write_ensemble_s": ("generate", "io.write_ensemble", "total_s"),
    "io.read_ensemble_s": ("detect", "io.read_ensemble", "total_s"),
    "io.read_report_s": ("verify", "io.read_report", "total_s"),
    "io.report_body_s": ("detect", "io.report_body", "total_s"),
    "io.write_report_s": ("detect", "io.write_report", "total_s"),
    "space.filtration_s": ("detect", "space.filtration", "total_s"),
    "space.stop_process_calls": ("detect", "space.stop_process", "calls"),
    "space.stop_process_s": ("detect", "space.stop_process", "total_s"),
    "space.cell_average_calls": ("detect", "space.cell_average", "calls"),
    "space.cell_average_s": ("detect", "space.cell_average", "total_s"),
    "space.check_stopping_time_s": ("detect", "space.check_stopping_time", "total_s"),
    "doob.discrete_stage_s": ("detect", "doob.discrete_stage", "total_s"),
    "doob.decompose_calls": ("detect", "doob.decompose", "calls"),
    "komlos.extract_s": ("detect", "komlos.extract", "total_s"),
    "komlos.min_norm_point_calls": ("detect", "komlos.min_norm_point", "calls"),
    "pipeline.continuous_stage_s": ("detect", "pipeline.continuous_stage", "total_s"),
    "pipeline.assemble_s": ("detect", "pipeline.assemble", "total_s"),
    "pipeline.free_lunch_s": ("detect", "pipeline.free_lunch", "total_s"),
    "pipeline.detect_self_s": ("detect", "pipeline.detect", "self_s"),
    "integrands.integral_process_calls": ("detect", "integrands.integral_process", "calls"),
    "integrands.integral_process_s": ("detect", "integrands.integral_process", "total_s"),
    "integrands.integrand_builds": ("detect", "integrands.integrand_build", "calls"),
    "integrands.integrand_build_s": ("detect", "integrands.integrand_build", "total_s"),
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["PYTHONHASHSEED"] = "0"
    for var in BLAS_ENV:
        env[var] = str(BLAS_THREADS)
    return env


# run once per benchmark run, before anything is timed: importing
# semimart.cli here also compiles and caches semimart's bytecode
_PROBE = """
import json, numpy as np, semimart.cli
blas = {}
try:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
except Exception:
    pass
print(json.dumps({"numpy": np.__version__,
                  "blas": "%s %s" % (blas.get("name", "?"), blas.get("version", "?"))}))
"""


def environment(env: dict) -> dict:
    """Machine and library facts printed with every run; nothing is changed."""
    info = {
        "nproc": os.cpu_count(),
        # MemTotal
        "mem_total_mb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 2**20,
        "python": platform.python_version(),
        "blas_threads": BLAS_THREADS,
    }
    try:
        out = subprocess.run([sys.executable, "-c", _PROBE], env=env, capture_output=True,
                             text=True, timeout=60)
        info.update(json.loads(out.stdout))
    except (OSError, ValueError, subprocess.TimeoutExpired):
        pass  # semimart does not import: every operation will fail and be counted
    return info


class Run:
    """The operations of one workload, with their results and failures."""

    def __init__(self, wl, seed: int, smoke: bool, trace: bool, work: Path, trace_path):
        spec = dict(wl.spec)
        levels = wl.levels
        if smoke:
            spec.update(wl.smoke_spec)
            levels = wl.smoke_levels
        self.params = {"spec": spec, "seed": seed, "levels": levels, "expect": wl.expect}
        self.trace = trace
        self.work = work
        self.trace_path = trace_path
        self.env = child_env()
        self.results = []  # (traced, operation result) in the order run
        self.sha256 = None  # of the first ensemble file written
        self.errors = []  # benchmark-level failures, each also counted as one failed check
        self.start = time.monotonic()

    def op(self, name: str, traced: bool) -> dict:
        out = self.work / f"{name}.result.json"
        out.unlink(missing_ok=True)
        cmd = [sys.executable, str(HERE / "op.py"), name, "--params", json.dumps(self.params),
               "--work", str(self.work), "--out", str(out)]
        if traced:
            cmd += ["--trace", str(self.trace_path)]
        timeout = max(1.0, self.start + RUN_LIMIT_S - time.monotonic())
        started = time.monotonic()
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=self.work, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            return {"op": name, "times": {}, "errors": [f"timed out after {timeout:.0f} s"]}
        try:
            result = json.loads(out.read_text())
        except (OSError, ValueError):
            result = {"op": name, "times": {}, "errors": []}
        if proc.returncode != 0 and not result["errors"]:
            result["errors"].append(f"exit {proc.returncode}: {proc.stderr[-2000:]}")
        if "ready_monotonic" in result:
            result["times"]["setup_s"] = result["ready_monotonic"] - started
        return result

    def step(self, name: str, traced: bool) -> None:
        needs = {"detect": "source.jsonl", "verify": "report.json"}.get(name)
        if needs is None or (self.work / needs).exists():
            r = self.op(name, traced)
        else:
            r = {"op": name, "times": {}, "errors": [f"no {needs} to work on"]}
        if name == "generate" and not r["errors"]:
            self.sha256 = self.sha256 or r["ensemble_sha256"]
            if r["ensemble_sha256"] != self.sha256:
                r["errors"].append("ensemble file differs from the run's first")
        self.results.append((traced, r))

    def execute(self, seconds: float) -> None:
        """Operations in CYCLE order until the next one is expected to end
        after `seconds`: at least one whole cycle, and with tracing one
        untraced and one traced cycle.  Later cycles reuse the files the
        first wrote, so stopping between any two operations is safe."""
        min_ops = len(CYCLE) * (2 if self.trace else 1)
        last = {}  # latest duration of each operation
        for i in itertools.count():
            name = CYCLE[i % len(CYCLE)]
            began = time.monotonic()
            self.step(name, traced=self.trace and (i // len(CYCLE)) % 2 == 1)
            last[name] = time.monotonic() - began
            ends = time.monotonic() - self.start + last.get(CYCLE[(i + 1) % len(CYCLE)], 0.0)
            if i + 1 >= min_ops and ends > min(seconds, RUN_LIMIT_S - 30):
                return

    def ops(self, traced: bool | None = None):
        return [r for was_traced, r in self.results if traced is None or was_traced == traced]

    def attempted(self) -> int:
        return len(self.results) + len(self.errors)

    def failed(self) -> int:
        return sum(1 for r in self.ops() if r["errors"]) + len(self.errors)

    def samples(self, metric: str, traced: bool = False) -> list:
        return [r["times"][metric] for r in self.ops(traced)
                if not r["errors"] and metric in r["times"]]

    def end_to_end(self) -> dict:
        out = {}
        for m in workloads.END_TO_END:
            if m.name == "peak_rss_mb":
                values = [r["peak_rss_mb"] for r in self.ops(False) if "peak_rss_mb" in r]
                out[m.name] = (max(values) if values else 0.0, len(values))
            else:
                values = self.samples(m.name)
                out[m.name] = (statistics.median(values) if values else 0.0, len(values))
        return out

    def per_layer(self) -> dict:
        by_op = {name: [r for r in self.ops(True) if r["op"] == name and not r["errors"]]
                 for name in ("generate", "detect", "verify")}
        if not all(by_op.values()):
            self.errors.append("some operation never completed traced")
            return {m.name: 0.0 for m in workloads.PER_LAYER}
        detect = by_op["detect"]

        def med(values):
            return statistics.median(values)

        values = {}
        for metric, (op, span, field) in LAYER_SPANS.items():
            values[metric] = med([r["layers"].get(span, {}).get(field, 0) for r in by_op[op]])
        counts = detect[0]["counts"]
        values["io.ensemble_bytes"] = by_op["generate"][0]["ensemble_bytes"]
        values["io.report_bytes"] = detect[0]["report_bytes"]
        values["doob.ladder_rungs"] = (counts.get("doob.sigma_stop", 0)
                                       + counts.get("doob.tau_stop", 0))
        values["komlos.steps"] = counts["komlos.steps"]
        pairs = counts["integrands.integral_pairs"]
        calls = values["integrands.integral_process_calls"]
        values["integrands.integral_pairs"] = pairs
        values["integrands.integral_useful_ratio"] = pairs / calls if calls else 0.0
        for stage in ("read", "setup", "detect"):
            values[f"mem.rss_after_{stage}_mb"] = med([r["rss_after"][stage] for r in detect])
        untraced = self.samples("detect_s", traced=False)
        values["trace.overhead_s"] = (
            med(self.samples("detect_s", traced=True)) - med(untraced) if untraced else 0.0
        )
        for op in ("detect", "verify"):
            cover = med([r["self_cover"] for r in by_op[op]])
            values[f"trace.{op}_self_cover"] = cover
            if not COVER_RANGE[0] <= cover <= COVER_RANGE[1]:
                self.errors.append(f"{op}: layer self times cover {cover:.3f} of its wall time")
        self._check_counts(by_op)
        return values

    def _check_counts(self, by_op) -> None:
        """Exact counts must repeat: every detect and every verify re-detect alike."""
        reference = by_op["detect"][0]
        for r in by_op["detect"] + by_op["verify"]:
            if r["counts"] != reference["counts"]:
                self.errors.append(f"{r['op']} counts differ on the same seed: "
                                   f"{r['counts']} != {reference['counts']}")
        if any(r["report_bytes"] != reference["report_bytes"] for r in by_op["detect"]):
            self.errors.append("report size differs on the same seed")


def measure(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    wl = workloads.workload(name)
    OUT_DIR.mkdir(exist_ok=True)
    trace_path = OUT_DIR / f"trace-{name}{'-smoke' if smoke else ''}-seed{seed}.jsonl"
    work = OUT_DIR / f"work-{os.getpid()}-{name}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    run = Run(wl, seed, smoke, trace, work, trace_path)
    try:
        env = environment(run.env)
        if trace:
            trace_path.write_text(json.dumps({"workload": name, "seed": seed, "env": env}) + "\n")
        run.execute(seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if trace:
        units = {m.name: m.unit for m in workloads.PER_LAYER}
        metrics = {k: {"value": v, "unit": units[k]} for k, v in run.per_layer().items()}
    else:
        units = {m.name: m.unit for m in workloads.END_TO_END}
        metrics = {k: {"value": v, "unit": units[k]} for k, (v, _) in run.end_to_end().items()}
    report(name, seed, run, env, trace)
    return {
        "correct": run.failed() == 0,
        "attempted": run.attempted(),
        "failed": run.failed(),
        "metrics": metrics,
    }


def report(name: str, seed: int, run: Run, env: dict, trace: bool) -> None:
    """Human-readable lines; the machine-readable result follows them."""
    print(f"# workload {name}, seed {seed}: {len(run.results)} operations "
          f"({len(run.ops(True))} traced) cycling {' -> '.join(CYCLE)}, a fresh process each")
    print("# env " + " ".join(f"{k}={v}" for k, v in sorted(env.items())))
    for metric, (value, n) in run.end_to_end().items():
        if metric == "peak_rss_mb":
            what, samples = "max of", [r["peak_rss_mb"] for r in run.ops(False)
                                       if "peak_rss_mb" in r]
        else:
            what, samples = "median of", run.samples(metric)
        listed = " ".join(f"{v:.3f}" for v in samples)
        print(f"  {metric:<14} {value:12.4f}  {what} {n} untraced samples: {listed}")
    failed, attempted = run.failed(), run.attempted()
    print(f"  {'failed_frac':<14} {failed / attempted:12.4f}  {failed} of {attempted} "
          f"operations and checks failed")
    for r in run.ops():
        for err in r["errors"]:
            print(f"  FAILED {r['op']}: {err.strip().splitlines()[-1]}")
    for err in run.errors:
        print(f"  FAILED check: {err}")
    if trace:
        print(f"# spans written to {run.trace_path.relative_to(ROOT)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=workloads.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="level-2 version of the workload")
    parser.add_argument("--write-spec", action="store_true", help="write BENCHMARK.json")
    args = parser.parse_args(argv)

    if args.write_spec:
        with open(ROOT / "BENCHMARK.json", "w") as fh:
            json.dump(workloads.benchmark_json(), fh, indent=2)
            fh.write("\n")
        return 0
    names = [w.name for w in workloads.WORKLOADS]
    if args.workload not in names + ["all"]:
        parser.error(f"--workload must be one of {names + ['all']}")
    if not (ROOT / "src" / "semimart" / "__init__.py").is_file():
        print(f"no semimart sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.workload != "all":
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
        print(json.dumps(result))
        return 0 if result["correct"] else 1
    results = {n: measure(n, args.seed, args.seconds, bool(args.trace), args.smoke)
               for n in names}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": {n: r["metrics"] for n, r in results.items()},
    }))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
