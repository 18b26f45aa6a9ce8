"""Command-line entry points: generate, detect, verify.

Exit codes: 0 success (or verified), 1 invariant failure or failed
verification, 2 parameter error, malformed file or unwritable output
path, 3 inconclusive verdict.  The SEMIMART_OUT environment variable
sets the directory for default output paths.
"""

import argparse
import os
import sys

from .errors import (
    ConvergenceError,
    InvariantViolation,
    ParameterError,
    PreconditionError,
    ResourceLimitError,
    StructuralError,
)
from .generators import KINDS, GeneratorSpec, generate
from .io import (
    check_output,
    first_mismatch,
    json_field,
    read_ensemble,
    read_report,
    report_body,
    write_ensemble,
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
    # an unwritable output fails before the detection runs
    check_output(out)
    data = read_ensemble(args.input)
    config = _config_from_args(args)
    verdict = detect(data.to_source(), config)
    body = report_body(data, config, verdict)
    write_report(out, body, source_name=os.path.basename(args.input))
    print(f"verdict: {verdict.kind}; wrote {out}")
    return EXIT_OK if verdict.kind in ("certificate", "free_lunch") else EXIT_INCONCLUSIVE


def _config_from_body(body: dict) -> DetectConfig:
    where = "report.body.config"
    cfg = json_field(body, "report.body", "config", dict)
    levels = json_field(cfg, where, "levels", list)
    eps, tol, ladder_max = (json_field(cfg, where, key, str) for key in ("eps", "tol", "ladder_max"))
    window = json_field(cfg, where, "window", int)
    try:
        return DetectConfig(eps=float(eps), tol=float(tol),
                            levels=None if levels is None else tuple(levels),
                            ladder_max=float(ladder_max), window=window)
    except ValueError as exc:
        raise ParameterError(f"{where}: {exc}") from exc


def cmd_verify(args) -> int:
    doc = read_report(args.report)
    body = doc["body"]
    source_path = args.source or os.path.join(
        os.path.dirname(os.path.abspath(args.report)), doc["source_name"]
    )
    # a malformed config or source digest is refused before the source is read
    config = _config_from_body(body)
    source = json_field(body, "report.body", "source", dict)
    stored_sha = json_field(source, "report.body.source", "sha256", str)
    data = read_ensemble(source_path)
    if stored_sha != data.sha256:
        print("verification failed: mismatch at body.source.sha256")
        return EXIT_INVARIANT
    verdict = detect(data.to_source(), config)
    recomputed = report_body(data, config, verdict)
    hit = first_mismatch(body, recomputed)
    if hit:
        print(f"verification failed: mismatch at {hit}")
        return EXIT_INVARIANT
    print(f"verified: {args.report} reproduces from {source_path}")
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

    det = sub.add_parser("detect", help="run the dichotomy and write a report")
    det.add_argument("input")
    det.add_argument("--eps", type=float, default=DetectConfig.eps)
    det.add_argument("--tol", type=float, default=DetectConfig.tol)
    det.add_argument("--levels", help="comma-separated level list, default 1..file level")
    det.add_argument("--ladder-max", type=float, default=DetectConfig.ladder_max)
    det.add_argument("--window", type=int, default=DetectConfig.window)
    det.add_argument("--out")
    det.set_defaults(func=cmd_detect)

    ver = sub.add_parser("verify", help="recompute a report and compare field by field")
    ver.add_argument("report")
    ver.add_argument("--source", help="ensemble file (default: source_name next to the report)")
    ver.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
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
