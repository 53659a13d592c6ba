"""Command-line front end: score, generate, eval, and sweep over CSV files.

Exit codes: 0 success, 1 data error (unreadable/invalid input), 2 usage
error (bad flags or parameter values). Diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import ctypes
import sys

from . import datagen, evaluate, ingest
from .errors import OdacError
from .fast import score_all_fast
from .naive import score_all_naive
from .types import DEFAULT_N_D, DEFAULT_S_N, LabeledDataset, Params

_SCORERS = {"fast": score_all_fast, "naive": score_all_naive}

# glibc's malloc moves its mmap and trim thresholds with what the process
# has freed so far, so whether a large array is reused, kept or given back
# (and with it a command's peak memory) would depend on the process's
# history, down to the order its modules were imported in. Fixed
# thresholds take that history out for large arrays: an array of 16 MiB
# or more gets its own mapping, unmapped when freed, and the heap gives
# back a free top of more than 16 MiB. Smaller blocks stay on the heap,
# where a block loop reuses them. Set on import, before any command runs.
# Free heap under the threshold, or below a block still in use, stays
# resident, so `main` also trims the heap when each command ends.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # glibc's <malloc.h>
_MALLOC_THRESHOLD = 16 << 20


def _glibc():
    """The C library on Linux, if it has glibc's mallopt and malloc_trim; else None."""
    if not sys.platform.startswith("linux"):
        return None
    try:
        libc = ctypes.CDLL(None)
    except OSError:
        return None
    return libc if hasattr(libc, "mallopt") and hasattr(libc, "malloc_trim") else None


_LIBC = _glibc()
if _LIBC is not None:
    _LIBC.mallopt(_M_MMAP_THRESHOLD, _MALLOC_THRESHOLD)
    _LIBC.mallopt(_M_TRIM_THRESHOLD, _MALLOC_THRESHOLD)


def _add_scoring_flags(parser) -> None:
    parser.add_argument("--nd", type=float, default=DEFAULT_N_D,
                        help="observation-point offset (default %(default)s)")
    parser.add_argument("--sn", type=int, default=DEFAULT_S_N,
                        help="top similarities summed per point (default %(default)s)")
    parser.add_argument("--scorer", choices=sorted(_SCORERS), default="fast",
                        help="scoring path (default %(default)s)")


def _add_input_flags(parser, required: bool = True) -> None:
    parser.add_argument("--in", dest="input", required=required, metavar="PATH",
                        help="input CSV file")
    parser.add_argument("--header", action="store_true",
                        help="input has a header row")
    parser.add_argument("--label-col", default=None, metavar="COL",
                        help="0/1 label column, by name (with --header) or index")
    parser.add_argument("--normalize", action="store_true",
                        help="min-max normalize each column before scoring")
    parser.add_argument("--scale", type=float, default=None, metavar="C",
                        help="multiplier applied after normalization (default 300 "
                             "with --normalize, else 1)")


def _add_generator_flags(parser, required: bool = True) -> None:
    parser.add_argument("--dim", type=int, required=required, help="dimensionality")
    parser.add_argument("--normal", type=int, required=required,
                        help="points in the cluster ball")
    parser.add_argument("--anomalies", type=int, required=required,
                        help="points in the outer shell")
    parser.add_argument("--radius", type=float, default=1.0,
                        help="cluster radius R (default %(default)s)")
    parser.add_argument("--shell-min", type=float, default=1.1,
                        help="inner shell bound, multiple of R (default %(default)s)")
    parser.add_argument("--shell-max", type=float, default=3.0,
                        help="outer shell bound, multiple of R (default %(default)s)")
    parser.add_argument("--seed", type=int, default=0,
                        help="random seed (default %(default)s)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="odac",
        description="Outlier detection via added-dimension cosine similarity.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("score", help="rank the points of a CSV file")
    _add_input_flags(p)
    _add_scoring_flags(p)
    p.add_argument("--out", default=None, metavar="PATH",
                   help="ranking CSV (default: stdout)")

    p = sub.add_parser("generate", help="write a labeled synthetic scene")
    _add_generator_flags(p)
    p.add_argument("--out", default=None, metavar="PATH",
                   help="labeled CSV (default: stdout)")

    p = sub.add_parser(
        "eval",
        help="percentile-recall report on a labeled CSV, or seeded "
             "synthetic trials when --in is omitted",
    )
    _add_input_flags(p, required=False)
    _add_generator_flags(p, required=False)
    p.add_argument("--buckets", type=float, default=1.0, metavar="W",
                   help="bucket width in percent (default %(default)s)")
    p.add_argument("--trials", type=int, default=200,
                   help="trial count in synthetic mode (default %(default)s)")
    _add_scoring_flags(p)
    p.add_argument("--out", default=None, metavar="PATH",
                   help="also write the report as CSV")

    p = sub.add_parser("sweep", help="worst-outlier rank over a parameter list")
    _add_input_flags(p)
    _add_scoring_flags(p)
    p.add_argument("--vary", choices=("nd", "sn"), required=True,
                   help="which parameter to sweep")
    p.add_argument("--values", required=True, metavar="V1,V2,...",
                   help="comma-separated settings to try")
    p.add_argument("--out", default=None, metavar="PATH",
                   help="two-column curve CSV (default: stdout)")
    return parser


def _label_column(args):
    if args.label_col is None:
        return None
    try:
        return int(args.label_col)
    except ValueError:
        return args.label_col


def _read_input(args, need_labels: bool):
    label = _label_column(args)
    if need_labels and label is None:
        raise ValueError("--label-col is required here")
    loaded = ingest.read_csv(args.input, has_header=args.header, label_column=label)
    if not args.normalize and args.scale is None:
        return loaded
    scale = 300.0 if args.scale is None else args.scale
    if isinstance(loaded, LabeledDataset):
        scaled = ingest.preprocess(loaded.data, normalize=args.normalize, scale=scale)
        return LabeledDataset(scaled, loaded.is_outlier)
    return ingest.preprocess(loaded, normalize=args.normalize, scale=scale)


def _cmd_score(args) -> int:
    data = _read_input(args, need_labels=False)
    if isinstance(data, LabeledDataset):
        data = data.data  # labels are dropped for plain scoring
    report = _SCORERS[args.scorer](data, Params(n_d=args.nd, s_n=args.sn))
    ingest.write_scores(report, args.out if args.out else sys.stdout)
    return 0


def _synthetic_spec(args) -> datagen.SyntheticSpec:
    if args.dim is None or args.normal is None or args.anomalies is None:
        raise ValueError("synthetic mode needs --dim, --normal and --anomalies")
    return datagen.SyntheticSpec(
        dim=args.dim,
        normal_count=args.normal,
        anomaly_count=args.anomalies,
        radius=args.radius,
        shell_min=args.shell_min,
        shell_max=args.shell_max,
        seed=args.seed,
    )


def _cmd_generate(args) -> int:
    labeled = datagen.generate(_synthetic_spec(args))
    ingest.write_csv(labeled, args.out if args.out else sys.stdout)
    return 0


def _cmd_eval(args) -> int:
    params = Params(n_d=args.nd, s_n=args.sn)
    scorer = _SCORERS[args.scorer]
    if args.input is not None:
        labeled = _read_input(args, need_labels=True)
        report = evaluate.percentile_recall(
            labeled, params, bucket_width_percent=args.buckets, scorer=scorer
        )
    else:
        report = evaluate.run_trials(
            _synthetic_spec(args), params, trials=args.trials, scorer=scorer
        )
    print(report.to_text())
    if args.out:
        report.to_csv(args.out)
    return 0


def _cmd_sweep(args) -> int:
    labeled = _read_input(args, need_labels=True)
    values = [v for v in args.values.split(",") if v.strip()]
    if not values:
        raise ValueError("--values is empty")
    vary = {"nd": "n_d", "sn": "s_n"}[args.vary]
    parsed = [float(v) if vary == "n_d" else int(v) for v in values]
    report = evaluate.sweep(
        labeled,
        Params(n_d=args.nd, s_n=args.sn),
        vary=vary,
        values=parsed,
        scorer=_SCORERS[args.scorer],
    )
    if args.out:
        report.to_csv(args.out)
        print(report.to_text())
    else:
        report.to_csv(sys.stdout)
    return 0


_COMMANDS = {
    "score": _cmd_score,
    "generate": _cmd_generate,
    "eval": _cmd_eval,
    "sweep": _cmd_sweep,
}


def main(argv: "list[str] | None" = None) -> int:
    """Run one command; return its exit code.

    When the command ends, failed or not, the heap's free pages are given
    back to the system, so what it freed does not stay resident under
    the next command's allocations.
    """
    try:
        return _run(argv)
    finally:
        if _LIBC is not None:
            _LIBC.malloc_trim(0)


def _run(argv: "list[str] | None") -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (OdacError, OSError) as exc:
        error, code = exc, 1
    except ValueError as exc:
        error, code = exc, 2
    print(f"odac {args.command}: {error}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
