"""One benchmark operation in a fresh interpreter: generate, detect or verify.

run.py starts this script once per operation, so each operation's peak
RSS (the process's own ru_maxrss) is separate.  It drives semimart's
public API as a user's session would and writes one JSON result file.

    python3 op.py generate|detect|verify --params JSON --work DIR --out FILE [--trace FILE]
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import time
import traceback

import numpy as np

import checks
from spans import LAYER_WRAPS, VERIFY_WRAPS, Recorder, descendants, rss_mb, self_times, summarize

SOURCE = "source.jsonl"
REPORT = "report.json"


def _source_arrays(semimart, src):
    """(probs, xi, values) of a generated source, as `semimart generate` writes them."""
    if isinstance(src, semimart.EnsembleProcess):
        return src.space.probs, src.xi, src.values
    space, S = src
    return space.probs, space.innovations, S.values


def _file_digest(path) -> tuple:
    with open(path, "rb") as fh:
        raw = fh.read()
    return len(raw), hashlib.sha256(raw).hexdigest()


def op_generate(rec, params, work, result):
    with rec.span("import"):
        import semimart
    spec = semimart.GeneratorSpec(seed=params["seed"], **params["spec"])
    path = os.path.join(work, SOURCE)
    wall = time.perf_counter()
    with rec.span("op.generate"):
        with rec.span("generators.generate"):
            src = semimart.generate(spec)
        probs, xi, values = _source_arrays(semimart, src)
        with rec.span("io.write_ensemble"):
            semimart.write_ensemble(path, spec, probs, xi, values)
    result["times"]["generate_s"] = time.perf_counter() - wall
    result["peak_rss_mb"] = rss_mb()
    result["ensemble_bytes"], result["ensemble_sha256"] = _file_digest(path)


def _check_verdict(semimart, source, verdict, expect) -> list:
    if verdict.kind != expect:
        return [f"verdict {verdict.kind!r}, expected {expect!r}"]
    if isinstance(source, semimart.EnsembleProcess):
        space, S = source.space, source.process
    else:
        space, S = source
    if verdict.kind == "certificate":
        return checks.certificate_errors(
            S.values, space.probs, space.labels, verdict.M.values, verdict.A.values,
            verdict.alpha.index, verdict.constants["tv_bound"],
        )
    strategies = [
        (np.column_stack([tau.index for tau in H.mesh]), H.weights)
        for H in verdict.strategies.elements
    ]
    return checks.free_lunch_errors(S.values, space.probs, strategies, verdict.alpha_star)


def op_detect(rec, params, work, result):
    with rec.span("op.setup"):
        with rec.span("import"):
            import semimart
        if params["trace"]:
            rec.install(LAYER_WRAPS)
        with rec.span("io.read_ensemble") as read_span:
            data = semimart.read_ensemble(os.path.join(work, SOURCE))
        with rec.span("space.filtration") as setup_span:
            source = data.to_source()
            if isinstance(source, semimart.EnsembleProcess):
                # lazy cached properties that detect would otherwise build
                source.space, source.process
    result["ready_monotonic"] = time.monotonic()
    config = semimart.DetectConfig(levels=params["levels"] and tuple(params["levels"]))
    wall = time.perf_counter()
    with rec.span("op.detect") as detect_span:
        with rec.span("pipeline.detect"):
            verdict = semimart.detect(source, config)
        with rec.span("io.report_body"):
            body = semimart.report_body(data, config, verdict)
        with rec.span("io.write_report"):
            semimart.write_report(os.path.join(work, REPORT), body, source_name=SOURCE)
    wall = time.perf_counter() - wall
    result["times"]["detect_s"] = wall
    result["peak_rss_mb"] = rss_mb()
    result["report_bytes"] = os.path.getsize(os.path.join(work, REPORT))
    result["rss_after"] = {"read": read_span[5], "setup": setup_span[5], "detect": detect_span[5]}
    result["self_cover"] = _self_cover(rec.spans, detect_span[0], wall)
    result["errors"] += _check_verdict(semimart, source, verdict, params["expect"])


def op_verify(rec, params, work, result):
    with rec.span("import"):
        import semimart.cli
    if params["trace"]:
        rec.install(LAYER_WRAPS + VERIFY_WRAPS)
    out = io.StringIO()
    argv = ["verify", os.path.join(work, REPORT), "--source", os.path.join(work, SOURCE)]
    wall = time.perf_counter()
    with rec.span("op.verify") as verify_span, contextlib.redirect_stdout(out):
        code = semimart.cli.main(argv)
    wall = time.perf_counter() - wall
    result["times"]["verify_s"] = wall
    result["peak_rss_mb"] = rss_mb()
    result["self_cover"] = _self_cover(rec.spans, verify_span[0], wall)
    if code != 0 or not out.getvalue().startswith("verified"):
        result["errors"].append(f"verify exited {code}: {out.getvalue().strip()}")


def _self_cover(spans, root: int, wall: float) -> float:
    """Sum of the self times of the layers below `root`, as a share of the
    operation's wall time measured outside the recorder."""
    selfs = self_times(spans)
    return sum(selfs[row[0]] for row in descendants(spans, root)) / wall


def _detect_counts(rec) -> dict:
    """Exact counts of the layers below pipeline.detect, for the repeat check."""
    roots = [row[0] for row in rec.spans if row[2] == "pipeline.detect"]
    below = descendants(rec.spans, roots[0]) if roots else []
    counts = {}
    for row in below:
        counts[row[2]] = counts.get(row[2], 0) + 1
    counts["komlos.steps"] = rec.komlos_steps
    counts["integrands.integral_pairs"] = rec.pairs()
    return counts


OPS = {"generate": op_generate, "detect": op_detect, "verify": op_verify}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("op", choices=sorted(OPS))
    parser.add_argument("--params", required=True, help="workload parameters as JSON")
    parser.add_argument("--work", required=True, help="directory holding source and report")
    parser.add_argument("--out", required=True, help="result file to write")
    parser.add_argument("--trace", help="append the spans here as JSONL")
    args = parser.parse_args()
    params = json.loads(args.params)
    params["trace"] = bool(args.trace)
    rec = Recorder()
    result = {"op": args.op, "times": {}, "errors": []}
    code = 0
    try:
        OPS[args.op](rec, params, args.work, result)
    except Exception:  # every failure is reported to run.py, which counts it
        result["errors"].append(traceback.format_exc())
        code = 1
    if args.trace:
        result["layers"] = summarize(rec.spans)
        result["counts"] = _detect_counts(rec)
        rec.write_jsonl(args.trace, {"op": args.op, "pid": os.getpid()})
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
