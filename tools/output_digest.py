"""Print one SHA-256 digest over the outputs of lilyseg's solvers and checks.

    python3 tools/output_digest.py [--seeds 1000] [--expect HEX]
    python3 tools/output_digest.py --pinned [--expect HEX]
    python3 tools/output_digest.py --window 45 [--seeds 10] [--expect HEX]
    python3 tools/output_digest.py --mc [--expect HEX]

For every seed s below ``--seeds``, the set ``sample_poisson(1.0,
Rectangle.square(15.0), s)`` is solved under both models, and ``repr()``
of the following goes into the digest, in this order:

* the germs and directions;
* radii, method and iteration count of ``solve_fixed_point``,
  ``solve_chain`` and ``solve_greedy_oracle``, and the chain traces;
* ``stopping_map`` and ``analyze`` of the fixed-point solution;
* ``verify_gmhs`` on each of the three solutions, and on copies of the
  fixed-point radii with the first finite radius, and with all radii,
  scaled by 1.025 and by 0.975.

With ``--pinned`` the digest is instead over the bytes of the pinned-origin
batch ``pinned_origin_radii(1, 1.0, 41, 10_000)`` (Model 1, 41 neighbours,
seeds 0-9999), which samples through ``sample_pinned``.

With ``--window SIDE`` the digest is instead over the sets
``sample_poisson(1.0, Rectangle.square(SIDE), s)`` for s below ``--seeds``
(10 by default): sets of about SIDE**2 germs, whose near lists come from the
cell grid.  For each model, ``repr()`` of the radii, method and iteration
count of ``solve_fixed_point``, then of ``stopping_map`` and ``analyze`` of
that solution, goes into the digest.

With ``--mc`` the digest is instead over ``repr()`` of the estimates of
``run_monte_carlo`` on 30x30 windows at unit intensity, Model 1 then
Model 2, 20 replications each (seeds 0-19, margin 8), with the ``tail``
and ``gaussian_tail`` estimators on: every tally of a replication, and the
pooled radii, reach these estimates.

Two source trees produce the same outputs on these inputs exactly when
they print the same digest.  With ``--expect HEX`` the script exits 1 when
the digest differs from HEX.  It imports lilyseg from ``src/`` of the
checkout it sits in.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from lilyseg import (  # noqa: E402
    RadiiAssignment,
    McConfig,
    Rectangle,
    analyze,
    pinned_origin_radii,
    run_monte_carlo,
    sample_poisson,
    solve_chain,
    solve_fixed_point,
    solve_greedy_oracle,
    verify_gmhs,
)
from lilyseg.structure import stopping_map  # noqa: E402

FACTORS = (1.025, 0.975)
PINNED = (1, 1.0, 41, 10_000)  # model, intensity, neighbours, replications
MC_ESTIMATORS = ("nu", "varpi", "mu", "p_finite", "tail", "gaussian_tail")


def scaled_copies(radii: RadiiAssignment):
    """The first finite radius, then all radii, times each factor."""
    values = list(radii.values)
    finite = [i for i, r in enumerate(values) if math.isfinite(r)]
    for factor in FACTORS:
        if finite:
            one = list(values)
            one[finite[0]] *= factor
            yield RadiiAssignment(tuple(one))
        yield RadiiAssignment(tuple(r * factor for r in values))


def seed_records(seed: int):
    """The ``repr`` strings of one seed's outputs, in digest order."""
    mps = sample_poisson(1.0, Rectangle.square(15.0), seed)
    yield repr(mps.points)
    for model in (1, 2):
        fixed = solve_fixed_point(mps, model)
        chain, traces = solve_chain(mps, model)
        greedy = solve_greedy_oracle(mps, model)
        for solution in (fixed, chain, greedy):
            yield repr((solution.radii, solution.method, solution.iterations))
        yield repr(traces)
        yield repr(stopping_map(fixed))
        yield repr(analyze(fixed))
        for solution in (fixed, chain, greedy):
            yield repr(verify_gmhs(mps, solution.radii, model))
        for radii in scaled_copies(fixed.radii):
            yield repr(verify_gmhs(mps, radii, model))


def window_records(seed: int, side: float):
    """The ``repr`` strings of one window's fixed-point outputs, in digest order."""
    mps = sample_poisson(1.0, Rectangle.square(side), seed)
    for model in (1, 2):
        fixed = solve_fixed_point(mps, model)
        yield repr((fixed.radii, fixed.method, fixed.iterations))
        yield repr(stopping_map(fixed))
        yield repr(analyze(fixed))


def mc_records():
    """The ``repr`` strings of the Monte Carlo estimates, Model 1 then Model 2."""
    for model in (1, 2):
        config = McConfig(model, 1.0, Rectangle.square(30.0), replications=20, estimators=MC_ESTIMATORS)
        yield repr(run_monte_carlo(config))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, help="digest seeds 0 .. SEEDS-1 (default 1000, or 10 with --window)")
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--pinned", action="store_true", help="digest the pinned-origin batch instead")
    mode.add_argument("--window", type=float, metavar="SIDE", help="digest fixed-point solves of SIDE x SIDE windows instead")
    mode.add_argument("--mc", action="store_true", help="digest Monte Carlo estimates on 30x30 windows instead")
    ap.add_argument("--expect", metavar="HEX", help="exit 1 unless the digest equals HEX")
    args = ap.parse_args(argv)
    digest = hashlib.sha256()
    if args.pinned:
        digest.update(pinned_origin_radii(*PINNED).tobytes())
        print(f"pinned_origin_radii{PINNED}: {digest.hexdigest()}")
    elif args.mc:
        for record in mc_records():
            digest.update(record.encode())
            digest.update(b"\n")
        print(f"run_monte_carlo, 30x30 windows, seeds 0-19: {digest.hexdigest()}")
    else:
        seeds = args.seeds if args.seeds is not None else 1000 if args.window is None else 10
        for seed in range(seeds):
            records = seed_records(seed) if args.window is None else window_records(seed, args.window)
            for record in records:
                digest.update(record.encode())
                digest.update(b"\n")
        where = "" if args.window is None else f"window {args.window:g}, "
        print(f"{where}seeds 0-{seeds - 1}: {digest.hexdigest()}")
    if args.expect is not None and digest.hexdigest() != args.expect.lower():
        print(f"output_digest.py: expected {args.expect}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
