"""Command-line entry points: generate, decompose, detect, verify, probe.

Exit codes: 0 success (or verified), 1 invariant failure or failed
verification, 2 parameter error, malformed file or unwritable output
path, 3 inconclusive verdict.  The SEMIMART_OUT environment variable
sets the directory for default output paths.
"""

import argparse
import os
import sys

import numpy as np

from .doob import doob_decompose
from .errors import (
    ConvergenceError,
    InvariantViolation,
    ParameterError,
    PreconditionError,
    ResourceLimitError,
    StructuralError,
)
from .generators import KINDS, GeneratorSpec, generate
from .integrands import SimpleIntegrand, StrategySequence, continuity_probe
from .io import (
    array_payload,
    check_output,
    fmt17,
    first_mismatch,
    open_output,
    read_ensemble,
    read_report,
    report_body,
    write_ensemble,
    write_json,
    write_report,
)
from .pipeline import DetectConfig, detect

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_PARAMETER = 2
EXIT_INCONCLUSIVE = 3


def _resolve_out(out: str | None, default_name: str) -> str:
    if out:
        return os.path.join(out, default_name) if os.path.isdir(out) else out
    return os.path.join(os.environ.get("SEMIMART_OUT", "."), default_name)


def cmd_generate(args) -> int:
    spec = GeneratorSpec(
        kind=args.kind,
        level=args.level,
        scale=args.scale,
        seed=args.seed,
        mode="exact_tree" if args.mode == "exact" else "ensemble",
        paths=args.paths,
        hurst=args.hurst,
        mu=args.mu,
        jump_size=args.jump_size,
    )
    out = _resolve_out(args.out, f"{spec.kind}-L{spec.level}-s{spec.seed}.jsonl")
    # an unwritable output fails before the sampling runs
    check_output(out)
    src = generate(spec)
    write_ensemble(out, spec, src.probs, src.xi, src.values)
    print(f"wrote {out} ({src.probs.size} atoms, level {spec.level}, {spec.mode})")
    return EXIT_OK


def cmd_decompose(args) -> int:
    # an explicit output file fails before the read; a default name needs
    # the file's level, and is checked before the decomposition runs
    if args.out and not os.path.isdir(args.out):
        check_output(args.out)
    data = read_ensemble(args.input)
    src = data.to_source()
    S, space = src.process, src.space
    level = args.level if args.level is not None else data.spec.level
    out = _resolve_out(args.out, f"decomposition-L{level}.json")
    check_output(out)
    D = doob_decompose(S, level, src.drift_increments(level))
    doc = {
        "format": "semimart-decomposition-1",
        "source_sha256": data.sha256,
        "level": D.level,
        "qv_mean": fmt17(space.expectation(D.qv)),
        "tv_mean": fmt17(space.expectation(D.tv)),
        "m_l2": fmt17(D.m_l2),
        "M": array_payload(D.M.values),
        "A": array_payload(D.A.values),
    }
    write_json(out, doc)
    print(f"wrote {out} (level {level}: E[QV]={doc['qv_mean']}, E[TV]={doc['tv_mean']})")
    return EXIT_OK


def _config_from_args(args) -> DetectConfig:
    levels = None
    if args.levels:
        try:
            levels = tuple(int(tok) for tok in args.levels.split(","))
        except ValueError as exc:
            raise ParameterError(f"--levels: {exc}") from exc
    return DetectConfig(
        eps=args.eps,
        tol=args.tol,
        levels=levels,
        ladder_max=args.ladder_max,
        window=args.window,
    )


def cmd_detect(args) -> int:
    out = _resolve_out(args.out, "report.json")
    # an unwritable output fails before the detection runs and before any file is written
    for path in filter(None, (out, args.csv)):
        check_output(path)
    data = read_ensemble(args.input)
    config = _config_from_args(args)
    verdict = detect(data.to_source(), config)
    body = report_body(data, config, verdict)
    write_report(out, body, source_name=os.path.basename(args.input))
    print(f"verdict: {verdict.kind}; wrote {out}")
    if args.csv:
        _write_series_csv(args.csv, verdict, data)
    return EXIT_OK if verdict.kind in ("certificate", "free_lunch") else EXIT_INCONCLUSIVE


def _write_series_csv(path, verdict, data) -> None:
    """Plot-ready per-time series for certificate verdicts."""
    if verdict.kind != "certificate":
        print(f"no series to write for a {verdict.kind} verdict", file=sys.stderr)
        return
    space = verdict.M.space
    times = space.times
    rows = ["t,mean_abs_A,mean_M_sq"]
    for j, t in enumerate(times):
        rows.append(
            f"{fmt17(t)},{fmt17(space.expectation(np.abs(verdict.A.values[:, j])))},"
            f"{fmt17(space.expectation(verdict.M.values[:, j] ** 2))}"
        )
    with open_output(path) as fh:
        fh.write("\n".join(rows) + "\n")
    print(f"wrote {path}")


def _config_from_body(body: dict) -> DetectConfig:
    try:
        cfg = body["config"]
        levels = cfg["levels"]
        return DetectConfig(
            eps=float(cfg["eps"]),
            tol=float(cfg["tol"]),
            levels=None if levels is None else tuple(int(n) for n in levels),
            ladder_max=float(cfg["ladder_max"]),
            window=int(cfg["window"]),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParameterError(f"report.body.config: {exc}") from exc


def cmd_verify(args) -> int:
    doc = read_report(args.report)
    body = doc["body"]
    source_path = args.source or os.path.join(
        os.path.dirname(os.path.abspath(args.report)), doc["source_name"]
    )
    data = read_ensemble(source_path)
    try:
        stored_sha = body["source"]["sha256"]
    except (KeyError, TypeError) as exc:
        raise ParameterError(f"report.body.source: {exc}") from exc
    if stored_sha != data.sha256:
        print("verification failed: mismatch at body.source.sha256")
        return EXIT_INVARIANT
    config = _config_from_body(body)
    verdict = detect(data.to_source(), config)
    recomputed = report_body(data, config, verdict)
    hit = first_mismatch(body, recomputed)
    if hit:
        print(f"verification failed: mismatch at {hit}")
        return EXIT_INVARIANT
    print(f"verified: {args.report} reproduces from {source_path}")
    return EXIT_OK


def cmd_probe(args) -> int:
    data = read_ensemble(args.input)
    S = data.to_source().process
    space = S.space
    elements = tuple(
        SimpleIntegrand.constant(space, 1.0 / k) for k in range(1, args.steps + 1)
    )
    seq = StrategySequence(elements)
    stats = continuity_probe(S, seq, args.delta)
    print(f"continuity probe, delta = {args.delta:g}:")
    for k, stat in enumerate(stats, start=1):
        print(f"  k={k:3d}  |H|={1.0 / k:.6g}  P[|(H.S)_1| > delta] = {stat:.6g}")
    if args.out:
        doc = {
            "format": "semimart-probe-1",
            "delta": fmt17(args.delta),
            "stats": [fmt17(v) for v in stats],
        }
        write_json(args.out, doc)
        print(f"wrote {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semimart",
        description="Detect the semimartingale dichotomy on dyadic scenario trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="sample a process and write an ensemble file")
    gen.add_argument("--kind", required=True, choices=KINDS)
    gen.add_argument("--level", required=True, type=int)
    gen.add_argument("--scale", type=float, default=GeneratorSpec.scale)
    gen.add_argument("--seed", type=int, default=GeneratorSpec.seed)
    gen.add_argument("--mode", choices=("exact", "ensemble"), default="exact")
    gen.add_argument("--paths", type=int, default=GeneratorSpec.paths)
    gen.add_argument("--hurst", type=float, default=GeneratorSpec.hurst)
    gen.add_argument("--mu", type=float, default=GeneratorSpec.mu)
    gen.add_argument("--jump-size", type=float, default=GeneratorSpec.jump_size)
    gen.add_argument("--out")
    gen.set_defaults(func=cmd_generate)

    dec = sub.add_parser("decompose", help="dump one level's Doob decomposition")
    dec.add_argument("input")
    dec.add_argument("--level", type=int)
    dec.add_argument("--out")
    dec.set_defaults(func=cmd_decompose)

    det = sub.add_parser("detect", help="run the dichotomy and write a report")
    det.add_argument("input")
    det.add_argument("--eps", type=float, default=DetectConfig.eps)
    det.add_argument("--tol", type=float, default=DetectConfig.tol)
    det.add_argument("--levels", help="comma-separated level list, default 1..file level")
    det.add_argument("--ladder-max", type=float, default=DetectConfig.ladder_max)
    det.add_argument("--window", type=int, default=DetectConfig.window)
    det.add_argument("--out")
    det.add_argument("--csv", help="also write plot-ready series to this CSV path")
    det.set_defaults(func=cmd_detect)

    ver = sub.add_parser("verify", help="recompute a report and compare field by field")
    ver.add_argument("report")
    ver.add_argument("--source", help="ensemble file (default: source_name next to the report)")
    ver.set_defaults(func=cmd_verify)

    prb = sub.add_parser("probe", help="continuity probe with shrinking constant strategies")
    prb.add_argument("input")
    prb.add_argument("--delta", type=float, default=0.05)
    prb.add_argument("--steps", type=int, default=20)
    prb.add_argument("--out")
    prb.set_defaults(func=cmd_probe)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParameterError, PreconditionError, StructuralError, ResourceLimitError) as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return EXIT_PARAMETER
    except (InvariantViolation, ConvergenceError) as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
