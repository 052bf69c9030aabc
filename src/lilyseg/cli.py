"""Command-line pipeline: generate -> solve -> analyze -> render -> mc.

Every file-writing invocation emits a run manifest next to its primary
output (``<out>.manifest.json``) recording the exact argument vector;
``lilyseg replay manifest.json`` re-executes it and reproduces the outputs
byte for byte.  Exit codes: 0 success, 2 validation error (bad flags or
bad input data), 3 internal-consistency failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path
from typing import List, Optional, Sequence

import numpy as np

from . import __version__
from .errors import (
    AbortRateExceeded,
    ConditionDViolation,
    InternalConsistencyError,
    InvalidInput,
    InvalidWindow,
    LilysegError,
)
from .pointprocess import (
    Disk,
    Rectangle,
    n_closest_to_origin,
    read_realization,
    sample_poisson,
    write_realization,
)
from .solver import (
    read_solution,
    solution_to_json,
    solve_chain,
    solve_fixed_point,
    solve_greedy_oracle,
    write_solution,
)
from .stats import (
    McConfig,
    estimate_mu_consistency,
    estimates_to_csv,
    mass_transport_check,
    percolation_trend,
    run_monte_carlo,
)
from .structure import _check_margin
from .structure import analyze as analyze_structure
from .structure import contact_count_identity
from .render import render_svg

MANIFEST_SCHEMA = "1"


def _parse_window(spec: str) -> Rectangle:
    """Parse ``WxH`` into a rectangle centered at the origin."""
    try:
        w_str, h_str = spec.lower().split("x", 1)
        w, h = float(w_str), float(h_str)
    except ValueError:
        raise argparse.ArgumentTypeError(f"window must look like 30x30, got {spec!r}")
    try:
        return Rectangle(-w / 2.0, -h / 2.0, w / 2.0, h / 2.0)
    except InvalidWindow as exc:
        raise argparse.ArgumentTypeError(f"window {spec!r}: {exc}")


def _write_manifest(command: str, argv: Sequence[str], outputs: List[str], inputs: List[str], seeds: List[int]) -> None:
    if not outputs:
        return
    argv = [str(a) for a in argv]
    manifest = {
        "schema_version": MANIFEST_SCHEMA,
        "command": command,
        "argv": argv,
        "seeds": seeds,
        "inputs": inputs,
        "outputs": outputs,
        "config_hash": hashlib.sha256(json.dumps(argv).encode()).hexdigest()[:12],
        "artifact_version": __version__,
    }
    path = Path(outputs[0]).with_name(Path(outputs[0]).name + ".manifest.json")
    path.write_text(json.dumps(manifest, indent=2) + "\n")


def _cmd_generate(args, argv) -> int:
    if args.disk is not None:
        window = Disk(0.0, 0.0, args.disk)
    elif args.window is not None:
        window = args.window
    else:
        raise LilysegError("one of --window or --disk is required")
    mps = sample_poisson(args.intensity, window, args.seed)
    if args.n_closest is not None:
        mps = n_closest_to_origin(mps, args.n_closest)
    if args.out:
        write_realization(mps, args.out)
        _write_manifest("generate", argv, [args.out], [], [args.seed])
    else:
        write_realization(mps, sys.stdout)
    return 0


def _solve_one(mps, model: int, method: str):
    if method == "fixed":
        return solve_fixed_point(mps, model)
    if method == "chain":
        return solve_chain(mps, model)[0]
    if method == "oracle":
        return solve_greedy_oracle(mps, model)
    raise LilysegError(f"unknown method {method!r}")


def _cmd_solve(args, argv) -> int:
    mps = read_realization(args.infile)
    if args.method == "all":
        solutions = {m: _solve_one(mps, args.model, m) for m in ("fixed", "chain", "oracle")}
        base = solutions["fixed"].radii.to_array()
        for name, sol in solutions.items():
            other = sol.radii.to_array()
            same_inf = np.array_equal(np.isinf(base), np.isinf(other))
            finite = np.isfinite(base)
            close = np.allclose(base[finite], other[finite], rtol=1e-9, atol=0.0)
            if not (same_inf and close):
                raise InternalConsistencyError(f"method {name} disagrees with fixed point")
        solution = solutions["fixed"]
        print(f"three-way agreement on {len(mps)} points", file=sys.stderr)
    else:
        solution = _solve_one(mps, args.model, args.method)
    if args.out:
        write_solution(solution, args.out)
        _write_manifest("solve", argv, [args.out], [args.infile], [])
    else:
        write_solution(solution, sys.stdout)
    return 0


def _cmd_analyze(args, argv) -> int:
    solution = read_solution(args.infile)
    report = analyze_structure(solution)
    identity = contact_count_identity(report, solution)
    transport = mass_transport_check(
        solution, solution.point_set.window, args.margin, report=report
    )
    payload = solution_to_json(solution)
    payload["structure"] = report.to_json()
    payload["identities"] = {
        "contact_count": identity.to_json(),
        "mass_transport": transport.to_json(),
    }
    text = json.dumps(payload, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text)
        _write_manifest("analyze", argv, [args.out], [args.infile], [])
    else:
        sys.stdout.write(text)
    return 0


def _cmd_render(args, argv) -> int:
    solution = read_solution(args.infile)
    svg = render_svg(solution, highlight=args.highlight, clip_to_window=args.clip)
    if args.out:
        Path(args.out).write_text(svg)
        _write_manifest("render", argv, [args.out], [args.infile], [])
    else:
        sys.stdout.write(svg)
    return 0


_KNOWN_ESTIMATORS = {"nu", "varpi", "mu", "p_finite", "tail", "gaussian_tail", "trend"}


def _parse_sizes(spec: Optional[str]) -> List[float]:
    if not spec:
        raise LilysegError("--sizes is required for the trend estimator")
    try:
        sides = [float(s) for s in spec.split(",")]
    except ValueError:
        raise InvalidInput(f"--sizes must be a comma list of numbers, got {spec!r}") from None
    if not all(math.isfinite(side) and side > 0 for side in sides):
        raise InvalidInput(f"--sizes must be positive and finite, got {spec!r}")
    return sides


def _cmd_mc(args, argv) -> int:
    # Every argument is checked before the first replication runs, and the
    # output directory is made with the first file written into it: a
    # rejected run leaves nothing behind.
    estimators = tuple(e.strip() for e in args.estimators.split(",") if e.strip())
    unknown = sorted(set(estimators) - _KNOWN_ESTIMATORS)
    if unknown:
        raise LilysegError(f"unknown estimator(s): {', '.join(unknown)}")
    _check_margin(args.margin)  # a trend-only run builds no McConfig to check it
    core = tuple(e for e in estimators if e != "trend")
    config = None
    if core:
        config = McConfig(
            model=args.model,
            intensity=args.intensity,
            window=args.window,
            margin=args.margin,
            replications=args.reps,
            base_seed=args.seed,
            estimators=core,
        )
    sides = _parse_sizes(args.sizes) if "trend" in estimators else None
    out_dir = Path(args.out_dir)
    outputs: List[str] = []

    def write(name: str, text: str) -> None:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / name).write_text(text)
        outputs.append(str(out_dir / name))

    if config is not None:
        estimates = run_monte_carlo(config, workers=args.workers)
        table = estimates_to_csv(estimates)
        consistency = estimate_mu_consistency(estimates, args.model)
        if consistency.formula_defined:
            table += (
                f"mu_formula,{consistency.mu_formula!r},nan,"
                f"{estimates.n_certified},{estimates.config_hash}\n"
            )
        write("estimates.csv", table)
        if estimates.tail is not None:
            write("survival.csv", estimates.tail.to_csv())

    if sides is not None:
        trend = percolation_trend(args.model, args.intensity, sides, args.reps, args.seed, workers=args.workers)
        write("trend.csv", trend.to_csv())

    _write_manifest("mc", argv, outputs, [], [args.seed])
    return 0


def _cmd_replay(args, argv) -> int:
    manifest = json.loads(Path(args.manifest).read_text())
    return main(manifest["argv"])


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lilyseg",
        description="Hard-core segment growth systems: sampling, solving, analysis.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="sample a marked Poisson realization")
    g.add_argument("--lambda", dest="intensity", type=float, required=True, help="point intensity")
    g.add_argument("--window", type=_parse_window, help="WxH rectangle centered at the origin")
    g.add_argument("--disk", type=float, help="disk radius centered at the origin")
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--n-closest", type=int, help="pin the origin and keep only the K nearest germs")
    g.add_argument("--out", help="output path (defaults to stdout)")

    s = sub.add_parser("solve", help="solve a realization file")
    s.add_argument("--model", type=int, choices=(1, 2), required=True)
    s.add_argument("--method", choices=("fixed", "chain", "oracle", "all"), default="fixed")
    s.add_argument("--in", dest="infile", required=True)
    s.add_argument("--out", help="output path (defaults to stdout)")

    a = sub.add_parser("analyze", help="structure report and identity checks")
    a.add_argument("--in", dest="infile", required=True)
    a.add_argument("--margin", type=float, default=0.0)
    a.add_argument("--out", help="output path (defaults to stdout)")

    r = sub.add_parser("render", help="render a solution as SVG")
    r.add_argument("--in", dest="infile", required=True)
    r.add_argument("--out", help="output path (defaults to stdout)")
    r.add_argument("--highlight", choices=("cycles", "doublets", "none"), default="none")
    r.add_argument("--clip", action="store_true", help="clip to the sampling window rectangle")

    m = sub.add_parser("mc", help="Monte Carlo estimator campaign")
    m.add_argument("--model", type=int, choices=(1, 2), required=True)
    m.add_argument("--lambda", dest="intensity", type=float, default=1.0)
    m.add_argument("--window", type=_parse_window, default=_parse_window("30x30"))
    m.add_argument("--margin", type=float, default=8.0)
    m.add_argument("--reps", type=int, default=200)
    m.add_argument("--seed", type=int, default=0)
    m.add_argument("--estimators", default="nu,varpi,mu,p_finite", help="comma list; add tail,gaussian_tail,trend")
    m.add_argument("--sizes", help="comma list of window sides for the trend estimator")
    m.add_argument("--workers", type=int, default=1)
    m.add_argument("--out-dir", required=True)

    p = sub.add_parser("replay", help="re-run a recorded manifest")
    p.add_argument("manifest")
    return parser


_HANDLERS = {
    "generate": _cmd_generate,
    "solve": _cmd_solve,
    "analyze": _cmd_analyze,
    "render": _cmd_render,
    "mc": _cmd_mc,
    "replay": _cmd_replay,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    args = parser.parse_args(argv)
    handler = _HANDLERS[args.command]
    try:
        return handler(args, argv)
    except ConditionDViolation as exc:
        report = exc.report
        print(f"error: {exc}", file=sys.stderr)
        if report is not None:
            for (p1, p2, delta) in report.near_ties[:8]:
                print(f"  near tie {p1} vs {p2}: |delta|={delta:.3e}", file=sys.stderr)
            for pair in report.collinear_pairs[:8]:
                print(f"  collinear pair {pair}", file=sys.stderr)
        return 2
    except (AbortRateExceeded, InternalConsistencyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (LilysegError, FileNotFoundError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
