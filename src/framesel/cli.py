"""Command-line front end: frame generation, selection, sweeps, verification.

Subcommands
    gen     write a frame file (harmonic or modulated-harmonic)
    select  run the greedy selector on a frame file, write a certificate
    sweep   run selections over an n-range or an N-list, emit a CSV table
    katz    build the set-system counterexample and check its dichotomy
    verify  replay a certificate against a frame file

Exit codes: 0 success, 1 verification or selection failure, 2 usage or
input error, 3 I/O error. Every command is deterministic given its flags;
randomness flows only through --seed (default 0, never wall clock). Floats
in CSV output carry 17 significant digits, the lossless text form of a
double.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import sys

from .errors import (
    BarrierError,
    SelectionError,
    ToleranceBreachError,
)
from .frames import (
    harmonic_frame,
    load_frame,
    modulated_harmonic_frame,
    save_frame,
    validate_frame,
)
from .katz import build_katz, dichotomy_check, save_dichotomy_report
from .selector import (
    complement_lower_bound,
    load_certificate,
    save_certificate,
    select_prefixes,
    select_subset,
    verify_certificate,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_IO = 3

DEFAULT_SEED = 0

CSV_COLUMNS = (
    "k",
    "N",
    "m",
    "n",
    "lambda_max",
    "a_n",
    "excess",
    "excess_sqrt_N",
    "complement_lambda_min",
)


def _fmt(x: float) -> str:
    return "%.17g" % float(x)


def _seed(args: argparse.Namespace) -> int:
    if args.seed is not None and args.seed < 0:
        raise ValueError(f"--seed must be a non-negative integer, got {args.seed}")
    return DEFAULT_SEED if args.seed is None else args.seed


def cmd_gen(args: argparse.Namespace) -> int:
    if args.kind == "harmonic":
        if args.seed is not None:
            raise ValueError("--seed applies only with --kind modulated")
        frame = harmonic_frame(args.k, args.N)
    else:
        frame = modulated_harmonic_frame(args.k, args.N, seed=_seed(args))
    report = validate_frame(frame) if args.tol is None else validate_frame(frame, args.tol)
    save_frame(frame, args.out)
    print(f"wrote {args.out}")
    print(report.summary())
    return EXIT_OK if report.passed else EXIT_FAIL


def cmd_select(args: argparse.Namespace) -> int:
    frame = load_frame(args.frame)
    cert = select_subset(frame, args.n)
    save_certificate(cert, args.out)
    n, m = cert.n, cert.schedule.m
    print(f"wrote {args.out}")
    print(f"selected {n} of {m} vectors")
    print(f"lambda_max = {_fmt(cert.lambda_max)}")
    print(f"a_n        = {_fmt(cert.bound)}")
    print(f"margin     = {_fmt(cert.margin)}")
    print(f"excess     = {_fmt(cert.excess)}  (lambda_max - n/m)")
    return EXIT_OK


def _sweep_rows(args: argparse.Namespace):
    if args.N_list:
        ratio = 0.5 if args.ratio is None else args.ratio
        for N in args.N_list:
            frame = harmonic_frame(args.k, N)
            yield frame, select_subset(frame, round(ratio * frame.m))
    else:
        frame = harmonic_frame(args.k, args.N)
        for cert in select_prefixes(frame, range(args.n_min, args.n_max + 1)):
            yield frame, cert


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.N_list is None and args.N is None:
        raise ValueError("sweep needs --N with an n-range, or --N-list with --ratio")
    if args.N_list is not None and (args.N is not None or args.n_min is not None or args.n_max is not None):
        raise ValueError("--N-list uses --ratio; --N and an n-range apply only without it")
    if args.N_list is None:
        if args.n_min is None or args.n_max is None:
            raise ValueError("sweep over one frame needs both --n-min and --n-max")
        if args.ratio is not None:
            raise ValueError("--ratio applies only with --N-list; an n-range sets n directly")
        if args.n_min > args.n_max:
            raise ValueError(f"--n-min must not exceed --n-max, got {args.n_min} > {args.n_max}")
    elif args.ratio is not None and not 0.0 < args.ratio < 1.0:
        raise ValueError(f"--ratio must lie strictly between 0 and 1, got {args.ratio}")
    # every row is built before the output opens, so a run that fails writes nothing
    lines = [",".join(CSV_COLUMNS)]
    for frame, cert in _sweep_rows(args):
        comp_min, _ = complement_lower_bound(frame, cert)
        root = frame.N ** 0.5
        row = (
            str(frame.k),
            str(frame.N),
            str(frame.m),
            str(cert.n),
            _fmt(cert.lambda_max),
            _fmt(cert.bound),
            _fmt(cert.excess),
            _fmt(cert.excess * root),
            _fmt(comp_min),
        )
        lines.append(",".join(row))
    with open(args.out, "w", encoding="utf-8", newline="") if args.out else contextlib.nullcontext(sys.stdout) as out:
        out.write("\n".join(lines) + "\n")
    return EXIT_OK


def cmd_katz(args: argparse.Namespace) -> int:
    if not args.sampled and (args.trials is not None or args.seed is not None):
        raise ValueError("--trials and --seed apply only with --sampled")
    seed = _seed(args)
    system = build_katz(args.N)
    mode = "sampled" if args.sampled else "exhaustive"
    trials = {} if args.trials is None else {"trials": args.trials}
    report = dichotomy_check(system, mode=mode, seed=seed, **trials)
    save_dichotomy_report(report, args.out)
    print(f"wrote {args.out}")
    print(
        f"N = {report.N}, {report.mode}: {report.subsets_checked} subsets, "
        f"{report.min_pinned} with min 0, {report.max_pinned} with max 1, "
        f"{len(report.violations)} confined"
    )
    if not report.passed:
        print("dichotomy FAILED")
        return EXIT_FAIL
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    frame = load_frame(args.frame)
    cert = load_certificate(args.cert)
    report = verify_certificate(frame, cert)
    print(report.summary())
    if report.passed:
        print("certificate verified")
        return EXIT_OK
    print("certificate REJECTED")
    return EXIT_FAIL


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return value


def _int_list(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from exc
    if not values:
        raise argparse.ArgumentTypeError(f"expected at least one integer, got {text!r}")
    return values


def _tolerance(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(f"must be a finite non-negative number, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="framesel",
        description="Greedy norm-bounded frame subset selection with verifiable certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a frame file")
    p.add_argument("--k", type=_positive_int, required=True, help="ambient dimension")
    p.add_argument("--N", type=int, required=True, help="norm parameter (>= 2); m = k*N vectors")
    p.add_argument("--kind", choices=("harmonic", "modulated"), default="harmonic")
    p.add_argument("--seed", type=int, default=None, help="seed for --kind modulated (default 0)")
    p.add_argument("--out", default="frame.json", help="output path (default frame.json)")
    p.add_argument("--tol", type=_tolerance, default=None, help="frame validation tolerance (default 1e-9)")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("select", help="greedily select n vectors from a frame file")
    p.add_argument("--frame", required=True, help="input frame file")
    p.add_argument("--n", type=int, required=True, help="number of vectors to select (1 <= n < m)")
    p.add_argument("--out", default="certificate.json", help="output path (default certificate.json)")
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("sweep", help="selections over an n-range or an N-list, as CSV")
    p.add_argument("--k", type=_positive_int, required=True)
    p.add_argument("--N", type=int, default=None, help="single N; sweep n over --n-min..--n-max")
    p.add_argument("--n-min", dest="n_min", type=int, default=None)
    p.add_argument("--n-max", dest="n_max", type=int, default=None)
    p.add_argument("--N-list", dest="N_list", type=_int_list, default=None,
                   help="comma-separated N values, each run at --ratio (a list that starts with - is "
                   "written --N-list=-1,2)")
    p.add_argument("--ratio", type=float, default=None, help="n/m for --N-list runs (default 0.5)")
    p.add_argument("--out", default=None, help="CSV path (default: standard output)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("katz", help="set-system dichotomy check")
    p.add_argument("--N", type=int, required=True, help="half the ground-set size")
    p.add_argument("--sampled", action="store_true", help="sample subsets instead of enumerating all")
    p.add_argument("--trials", type=int, default=None, help="sample count for --sampled")
    p.add_argument("--seed", type=int, default=None, help="sampling seed for --sampled (default 0)")
    p.add_argument("--out", default="katz_report.json", help="output path (default katz_report.json)")
    p.set_defaults(func=cmd_katz)

    p = sub.add_parser("verify", help="replay a certificate against a frame file")
    p.add_argument("--frame", required=True, help="frame file the certificate claims to describe")
    p.add_argument("--cert", required=True, help="certificate file")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help and 2 for usage errors; pass both through
        return int(exc.code) if exc.code is not None else EXIT_OK
    try:
        return args.func(args)
    # BarrierError is a ValueError, so the failure clause must come first
    except (SelectionError, ToleranceBreachError, BarrierError) as exc:
        print(f"failure: {exc}", file=sys.stderr)
        if isinstance(exc, SelectionError) and exc.u_profile is not None:
            profile = exc.u_profile
            print(
                f"diagnostic: {profile.size} candidates, min U = {profile.min():.6g}, "
                f"median U = {float(sorted(profile)[len(profile) // 2]):.6g}",
                file=sys.stderr,
            )
        return EXIT_FAIL
    except ValueError as exc:  # FrameError and CertificateMismatchError among them
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
