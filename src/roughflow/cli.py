"""Command-line front end.

Experiment subcommands load an :class:`~roughflow.harness.ExperimentConfig`
from JSON and run the matching recipe::

    roughflow wong_zakai      --config cfg.json [--seed S] [--out DIR]
    roughflow stability       --config cfg.json ...
    roughflow steady_check    --config cfg.json ...
    roughflow remainder_scan  --config cfg.json ...
    roughflow flow_convergence --config cfg.json ...

Exit status: 0 when the experiment's pass criterion holds, 2 when it fails,
1 on a usage or library error.

The ``pvar`` subcommand computes the (optionally localized) p-variation of a
CSV time series::

    roughflow pvar series.csv --p 2.5 [--localize power:1.5[:SCALE]] [--L 0.8]

The CSV may have header rows (the rows before the first numeric row are
skipped, and so are blank lines); the rest is parsed by ``np.loadtxt``, so a
cell is a plain decimal, ``inf`` or ``nan`` (``float()`` spellings such as
``1_000`` are not numbers).  One column is read as values on a unit-spaced
grid, two or more as ``time, value...`` (vector values use the Euclidean
increment norm).  A time column that is not strictly increasing and finite
(a ``nan`` or ``inf`` cell included) or a non-finite value makes the command
exit 1.
``--localize`` names the control — ``power:EXPONENT[:SCALE]`` for
``ω(s,t) = SCALE·(t−s)^EXPONENT`` — and ``--L`` its threshold; ``--L``
alone localizes by plain interval length.  Output is one JSON object
``{"value": ..., "argmax_partition": [...]}`` on stdout, where ``value`` is
the partition supremum ``sup_P Σ |g_increment|^p`` (the p-th power, matching
the library convention) and ``argmax_partition`` lists the row indices of the
maximizing partition.
"""

import argparse
import itertools
import json
import sys

import numpy as np

from .errors import RoughFlowError
from .harness import EXPERIMENTS, ExperimentConfig, run_experiment
from .variation import (
    Control,
    Localization,
    _as_times,
    localized_p_variation,
    p_variation,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="roughflow",
        description="Rough transport experiments and variation utilities.")
    sub = parser.add_subparsers(dest="command", required=True)

    for name in EXPERIMENTS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", required=True,
                       help="path to an experiment-config JSON file")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config's first seed")
        p.add_argument("--out", default=None,
                       help="output directory (default: config.output_dir)")

    p = sub.add_parser("pvar", help="p-variation of a CSV time series")
    p.add_argument("csv", help="series file: 'value' or 'time,value...' rows")
    p.add_argument("--p", type=float, default=2.0, dest="p_exponent",
                   help="variation exponent (default 2.0)")
    p.add_argument("--localize", default=None, metavar="CONTROL-SPEC",
                   help="control spec power:EXPONENT[:SCALE]; needs --L")
    p.add_argument("--L", type=float, default=None, dest="threshold",
                   help="localization threshold for the control")
    return parser


def _is_numeric_row(line: str) -> bool:
    """Whether the ``np.loadtxt`` parse of :func:`_read_series` accepts
    ``line`` as one row of numbers."""
    try:
        np.loadtxt([line], delimiter=",", comments=None)
    except ValueError:
        return False
    return True


def _read_series(path: str):
    """CSV rows → (times, values); single-column files get unit-spaced times.

    Blank lines are skipped, and so are the rows before the first numeric
    row (a header).  The rest is parsed by ``np.loadtxt``, the reader of
    :func:`~roughflow.fields._read_table`, streamed from the file with no
    comment character: a ``#`` row after the data is a non-numeric row.
    """
    with open(path, "r", encoding="utf-8") as handle:
        rows = (line for line in handle if line.strip())
        first = next((line for line in rows if _is_numeric_row(line)), None)
        if first is None:
            raise RoughFlowError(f"no numeric rows in {path}")
        try:
            data = np.loadtxt(itertools.chain([first], rows), delimiter=",",
                              comments=None, ndmin=2)
        except ValueError:
            data = None
    if data is None:
        raise RoughFlowError(_series_error(path))
    if data.shape[1] == 1:
        return np.arange(data.shape[0], dtype=float), data[:, 0]
    return data[:, 0], data[:, 1:]


def _series_error(path: str) -> str:
    """Why ``np.loadtxt`` rejected the data rows of ``path``: its first
    non-numeric row after the data started, else its column counts."""
    started = False
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            if not line.strip():
                continue
            numeric = _is_numeric_row(line)
            if started and not numeric:
                return f"non-numeric row after data started: {line.strip()!r}"
            started = started or numeric
    return "rows have inconsistent column counts"


def _parse_control(spec: str | None, times: np.ndarray) -> Control:
    if spec is None:
        spec = "power:1"
    parts = spec.split(":")
    if parts[0] != "power" or len(parts) not in (2, 3):
        raise RoughFlowError(
            f"unknown control spec {spec!r}; expected power:EXPONENT[:SCALE]")
    try:
        exponent = float(parts[1])
        scale = float(parts[2]) if len(parts) == 3 else 1.0
    except ValueError:
        raise RoughFlowError(f"control spec {spec!r} has non-numeric fields")
    return Control.interval_power(times, exponent, scale)


def _run_pvar(args) -> int:
    times, values = _read_series(args.csv)
    times = _as_times(times)  # checked with or without --L
    if args.localize is not None and args.threshold is None:
        raise RoughFlowError("--localize requires --L (the threshold)")
    if args.threshold is not None:
        loc = Localization(_parse_control(args.localize, times), args.threshold)
        value, partition = localized_p_variation(
            values, args.p_exponent, loc, times=times, return_partition=True)
    else:
        value, partition = p_variation(values, args.p_exponent,
                                       return_partition=True)
    json.dump({"value": value, "argmax_partition": [int(i) for i in partition]},
              sys.stdout)
    sys.stdout.write("\n")
    return 0


def _run_experiment_command(args) -> int:
    with open(args.config, "r", encoding="utf-8") as handle:
        config = ExperimentConfig.from_json(handle.read())
    if config.experiment != args.command:
        raise RoughFlowError(
            f"config describes {config.experiment!r}, not {args.command!r}")
    out = args.out if args.out is not None else config.output_dir
    result = run_experiment(config, seed=args.seed, out_dir=out)
    verdict = "PASS" if result.passed else "FAIL"
    print(f"{result.experiment}: {verdict} "
          f"(seed {result.seed}, outputs in {result.out_dir})")
    for key, val in sorted(result.measured.items()):
        print(f"  {key} = {val}")
    return 0 if result.passed else 2


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "pvar":
            return _run_pvar(args)
        return _run_experiment_command(args)
    except (RoughFlowError, OSError) as exc:
        print(f"roughflow: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
