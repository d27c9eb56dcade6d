"""Batch front end: enumerate, verify, measure, census, extract, fixedpoint.

Artifacts are plain JSON/JSONL/CSV with the machine digest and budget
embedded, so any of them can be regenerated bit for bit from its own
metadata.  Worker count never changes output bytes.  Exit codes: 0 on
success, 2 on usage errors (argparse's default), 1 on runtime failures.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import cache

from . import census as census_mod
from . import enumerator, extractor, fixedpoint, measures
from .machine import Machine


def _fraction(text: str) -> Fraction:
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from exc
    if value <= 0:
        raise argparse.ArgumentTypeError("temperature must be positive")
    return value


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _frac_str(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def _emit(payload: dict, out_path: str | None) -> None:
    """Write the JSON artifact to out_path and name it on stdout, or, with no path, print the artifact."""
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
        sys.stdout.write(f"wrote {out_path}\n")
    else:
        sys.stdout.write(text)


def cmd_enumerate(args) -> int:
    budget = enumerator.Budget(args.max_len, args.max_rounds)
    result = enumerator.enumerate_domain(Machine(), budget, workers=args.workers)
    enumerator.write_log(result, args.out)
    summary = {
        **result.provenance(),
        "events": result.counts["halt"],
        "exhaustive": result.is_exhaustive(),
        "counts": result.counts,
        "log": args.out,
    }
    sys.stdout.write(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return 0


def cmd_verify(args) -> int:
    enum = enumerator.load_log(args.log)
    budget = enum.budget
    sys.stdout.write(
        f"ok: {args.log}: replays byte for byte ({enum.counts['halt']} events, "
        f"max_len {budget.max_len}, max_rounds {budget.max_rounds})\n"
    )
    return 0


def cmd_measure(args) -> int:
    enum = enumerator.load_log(args.log)
    _emit(measures.evaluate(enum, args.quantity, args.T, args.prec), args.out)
    return 0


def cmd_census(args) -> int:
    enum = enumerator.load_log(args.log)
    rows = census_mod.census_profile(enum, args.T, args.n_max)
    census_mod.write_profile_csv(rows, args.out)
    if args.members:
        with open(args.members, "w") as fh:
            header = {**enum.provenance(), "T": _frac_str(args.T)}
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            members = enum.compressible_stream(args.T).members
            for n, s in sorted((len(s), s) for s in members if len(s) < len(rows)):
                fh.write(json.dumps({"n": n, "s": s}, sort_keys=True) + "\n")
    sys.stdout.write(f"wrote {len(rows)} census rows to {args.out}\n")
    return 0


def cmd_extract(args) -> int:
    enum = enumerator.load_log(args.log)
    s = extractor.extract_incompressible(enum, args.n, args.T, args.mode)
    payload = {
        **enum.provenance(),
        "n": args.n,
        "T": _frac_str(args.T),
        "mode": args.mode,
        "string": s,
        "verified": extractor.verify_incompressible(enum, s, args.T),
        "exhaustive": enum.is_exhaustive(),
        "advisory": not enum.is_exhaustive(),
    }
    _emit(payload, args.out)
    return 0


def cmd_fixedpoint(args) -> int:
    enum = enumerator.load_log(args.log)
    consts = fixedpoint.derive_constants(enum, args.T, args.t, args.prec)
    k_full = fixedpoint.stream_length(enum)
    span = args.t - args.T
    grid = [args.T + span * Fraction(j, args.grid + 1) for j in range(1, args.grid + 1)]
    upper_ok = fixedpoint.upper_gap_sweep(enum, consts, grid, args.prec)
    lower_ok = fixedpoint.lower_gap_sweep(enum, consts, args.t, args.prec)
    floors = [fixedpoint.check_floor_identities(consts, n) for n in range(consts.n2, consts.n2 + 64)]
    ctx = fixedpoint.default_context(enum, args.T, args.t, prec=args.prec)
    trips = fixedpoint.reconstruction_roundtrips(enum, args.T, range(1, args.n_max + 1), ctx)
    payload = {
        **enum.provenance(),
        "T": _frac_str(args.T),
        "t": _frac_str(args.t),
        "constants": {
            "c_upper": consts.c_upper,
            "c_lower": consts.c_lower,
            "n0": consts.n0,
            "n1": consts.n1,
            "n2": consts.n2,
        },
        "upper_gap_all_k_and_grid": upper_ok,
        "lower_gap_all_k": lower_ok,
        "floor_identities_all_n": all(a and b for a, b in floors),
        "roundtrips": [{"n": trip.n, "ok": trip.ok, "selector_bits": ctx.c + 2} for trip in trips],
        "roundtrip_all_ok": all(trip.ok for trip in trips),
        "stream_length": k_full,
    }
    _emit(payload, args.out)
    return 0


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and kept; main dispatches on the command's name."""
    parser = argparse.ArgumentParser(prog="omegalab")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="decide all programs up to a length cap")
    p.add_argument("--max-len", type=_positive, required=True)
    p.add_argument("--max-rounds", type=_positive, default=32)
    p.add_argument("--workers", type=_positive, default=1, help="accepted and ignored")
    p.add_argument("--out", required=True)

    p = sub.add_parser("verify", help="replay a log against its machine and budget")
    p.add_argument("--log", required=True)

    p = sub.add_parser("measure", help="evaluate one of the five sums from a log")
    p.add_argument("--quantity", choices=["omega", "cs", "z", "cst", "csbt"], required=True)
    p.add_argument("--T", type=_fraction, default=None)
    p.add_argument("--prec", type=_positive, default=64)
    p.add_argument("--log", required=True)
    p.add_argument("--out", default=None)

    p = sub.add_parser("census", help="per-length compressible-string census CSV")
    p.add_argument("--T", type=_fraction, default=Fraction(1))
    p.add_argument("--n-max", type=_positive, default=None)
    p.add_argument("--log", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--members", default=None, help="optional JSONL membership dump")

    p = sub.add_parser("extract", help="produce a budget-incompressible string")
    p.add_argument("--n", type=_positive, required=True)
    p.add_argument("--T", type=_fraction, default=Fraction(1))
    p.add_argument("--mode", choices=["cs", "csb"], default="cs")
    p.add_argument("--log", required=True)
    p.add_argument("--out", default=None)

    p = sub.add_parser("fixedpoint", help="gap constants, inequality sweeps, reconstruction")
    p.add_argument("--T", type=_fraction, required=True)
    p.add_argument("--t", type=_fraction, required=True)
    p.add_argument("--n-max", type=_positive, default=24)
    p.add_argument("--grid", type=_positive, default=16)
    p.add_argument("--prec", type=_positive, default=96)
    p.add_argument("--log", required=True)
    p.add_argument("--out", default=None)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return globals()[f"cmd_{args.command}"](args)
    except Exception as exc:  # runtime failures -> exit 1, usage already exits 2
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
