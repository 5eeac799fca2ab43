"""Command-line interface.

Subcommands compose through files: ``simulate`` writes a sample CSV,
``fit`` turns a sample into a params JSON, and ``depth``/``rank``/
``contour``/``compare-boundary``/``verify`` consume one or both.
Only ``simulate``, ``fit`` and ``compare-boundary`` take a start time
(``--t0``); the other commands use the one stored in the params file.

Exit codes: 0 success, 1 usage error (also a flag above its cap in
``analysis.COUNT_CAPS``), 2 data or file error (also an allocation that fails),
3 property violations found by ``verify``.

The only environment override is ``TPPDEPTH_OUT_DIR``: when set, output
paths given without a directory component are placed there.
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys
from pathlib import Path

from . import io as tio
from .analysis import (
    COUNT_CAPS,
    DEFAULT_RAYS,
    METHODS,
    contour_grid,
    depth_breakdown,
    depth_values,
    near_boundary_comparison,
    rank,
    verify_properties,
)
from .errors import DataError
from .estimation import fit_mahalanobis, fit_params
from .simulate import KINDS, SimConfig, simulate


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # Any float literal is a value, not an option: -1e6 and -.5 too
        # (argparse's own pattern takes only -12 and -1.5).
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):
        raise _UsageError(message)


def _out_path(path: str) -> Path:
    out_dir = os.environ.get("TPPDEPTH_OUT_DIR")
    p = Path(path)
    if out_dir and p.parent == Path("."):
        return Path(out_dir) / p
    return p


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``tppdepth`` parser, built once per process: ``main`` only parses with it."""
    parser = _Parser(prog="tppdepth", description="Depth-based ranking for first-k-event point processes.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("simulate", help="generate a sample and write it as CSV")
    p.add_argument("--config", default=None,
                   help="JSON file with kind/rates/k/n/start/seed; flags override it")
    p.add_argument("--kind", choices=KINDS)
    p.add_argument("--rates", type=float, nargs="+")
    p.add_argument("--k", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--t0", dest="start", type=float, metavar="T0")
    p.add_argument("--out", required=True)

    p = sub.add_parser("fit", help="fit parameters from a sample CSV")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--t0", type=float, default=0.0)
    p.add_argument("--params-out", required=True)

    for name in ("depth", "rank"):
        p = sub.add_parser(name, help=f"compute per-realization {name} values")
        p.add_argument("--in", dest="input", required=True)
        p.add_argument("--params", required=True)
        p.add_argument("--method", required=True, choices=list(METHODS))
        p.add_argument("--out", required=True)
        p.add_argument("--format", choices=["csv", "json"], default="csv")

    p = sub.add_parser("contour", help="evaluate a depth on a k=2 grid")
    p.add_argument("--params", required=True)
    p.add_argument("--method", required=True, choices=list(METHODS))
    p.add_argument("--xmin", required=True, type=float)
    p.add_argument("--xmax", required=True, type=float)
    p.add_argument("--ymin", required=True, type=float)
    p.add_argument("--ymax", required=True, type=float)
    p.add_argument("--resolution", type=int, default=101)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=["csv", "json"], default="csv")

    p = sub.add_parser("compare-boundary", help="mean near-boundary ranks, both depths")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--threshold", required=True, type=float)
    p.add_argument("--t0", type=float, default=0.0)

    p = sub.add_parser("verify", help="run the randomized property suite")
    p.add_argument("--params", required=True)
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rays", type=int, default=DEFAULT_RAYS)
    p.add_argument("--in", dest="input", default=None,
                   help="optional sample CSV; scale-shift checks then refit on it")
    p.add_argument("--out", default=None, help="optional report JSON path")
    return parser


def _cmd_simulate(args) -> int:
    settings = {} if args.config is None else tio.load_sim_config_json(args.config)
    for key in ("kind", "rates", "k", "n", "start", "seed"):
        if getattr(args, key) is not None:
            settings[key] = getattr(args, key)
    missing = [key for key in ("kind", "rates", "k", "n") if key not in settings]
    if missing:
        raise _UsageError(
            f"simulate needs {', '.join('--' + m for m in missing)} (flags or --config)"
        )
    sample = simulate(SimConfig(**settings))
    tio.save_sample_csv(sample, _out_path(args.out))
    return 0


def _cmd_fit(args) -> int:
    sample = tio.load_csv(args.input, t0=args.t0)
    params = fit_params(sample)
    baseline = fit_mahalanobis(sample)
    tio.save_params_json(params, _out_path(args.params_out), baseline=baseline)
    return 0


def _cmd_depth(args) -> int:
    params, baseline = tio.load_params_json(args.params)
    sample = tio.load_csv(args.input, t0=params.start)
    out = _out_path(args.out)
    if args.method == "product":
        tio.save_breakdowns(depth_breakdown(sample, params, baseline), out, args.format)
    else:
        values = depth_values(sample, params, args.method, baseline=baseline)
        tio.save_values(values, args.method, out, args.format)
    return 0


def _cmd_rank(args) -> int:
    params, baseline = tio.load_params_json(args.params)
    sample = tio.load_csv(args.input, t0=params.start)
    table = rank(sample, params, args.method, baseline=baseline)
    tio.save_rank_table(table, _out_path(args.out), args.format)
    return 0


def _cmd_contour(args) -> int:
    params, baseline = tio.load_params_json(args.params)
    grid = contour_grid(
        params,
        args.method,
        x_range=(args.xmin, args.xmax),
        y_range=(args.ymin, args.ymax),
        resolution=args.resolution,
        baseline=baseline,
    )
    tio.save_contour(grid, _out_path(args.out), args.format)
    return 0


def _cmd_compare_boundary(args) -> int:
    sample = tio.load_csv(args.input, t0=args.t0)
    params = fit_params(sample)
    # Only the JSON fields outlive this line: the subset array is freed before the text is built.
    fields = tio.summary_to_dict(near_boundary_comparison(sample, params, args.threshold))
    print(tio.json_text(fields))
    return 0


def _cmd_verify(args) -> int:
    params, _ = tio.load_params_json(args.params)
    sample = None if args.input is None else tio.load_csv(args.input, t0=params.start)
    report = verify_properties(params, trials=args.trials, seed=args.seed,
                               rays=args.rays, sample=sample)
    for c in report.checks:
        status = "PASS" if c.violations == 0 else "FAIL"
        print(f"{c.name}: trials={c.trials} violations={c.violations} "
              f"worst_margin={c.worst_margin:.3g} {status}")
    if args.out:
        tio.save_report(report, _out_path(args.out))
    return 0 if report.passed else 3


_COMMANDS = {
    "simulate": _cmd_simulate,
    "fit": _cmd_fit,
    "depth": _cmd_depth,
    "rank": _cmd_rank,
    "contour": _cmd_contour,
    "compare-boundary": _cmd_compare_boundary,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        for flag, cap in COUNT_CAPS.items():  # before anything is read or allocated
            if getattr(args, flag, 0) > cap:
                raise _UsageError(f"--{flag} must be at most {cap}, got {getattr(args, flag)}")
        return _COMMANDS[args.command](args)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except (_UsageError, DataError, OSError, MemoryError) as exc:
        # numpy's MemoryError names the allocation; a bare one has no message.
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1 if isinstance(exc, _UsageError) else 2


if __name__ == "__main__":
    raise SystemExit(main())
