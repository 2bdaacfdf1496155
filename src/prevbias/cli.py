"""Command-line front end.

``prevbias estimate`` takes a count table (JSON, file or stdin) and prints a
single JSON object with the point estimates, standard errors, and confidence
intervals.  ``prevbias run`` executes a scenario config and writes the
aggregate tables plus the per-replicate interval table next to a manifest
that pins the seed and the config hash.

Exit codes: 0 on success, 1 when stdout is closed before the output is
written (as in ``prevbias estimate | head -1``), 2 for invalid input, 3 for
runtime failures.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

from . import __version__
from .asymptotics import ci_active_info, ci_logit_prevalence, sigma_it, sigma_p, sigma_p0
from .config import decode_json, load_scenario, parse_count_table, read_input
from .errors import BoundaryEstimate, InvalidSpec, PrevBiasError
from .estimators import build_bundle

ACTIVEINFO_COLUMNS = (
    "n",
    "replicates",
    "kept",
    "discarded",
    "undefined_active_info",
    "mean_p_hat",
    "mean_p0_hat",
    "i_plus_t",
    "i_plus_c",
    "i_plus",
)
RMSE_COLUMNS = ("n", "replicates", "kept", "discarded", "rmse_p0", "rmse_abs_sd")
COVERAGE_COLUMNS = ("n", "replicates", "kept", "discarded", "boundary_misses", "coverage")


def _write_table(path: Path, table, fmt: str) -> None:
    """Write a table given as a mapping from column name to column values.

    Each column holds ints, floats or bools, one type per column, and the
    table has at least one row.  Both formats fill one row template with a
    single ``%`` over the flattened cells.  The json bytes are those of
    ``json.dumps(rows, indent=2, sort_keys=True)`` with NaN and infinities as
    ``null``; the csv cells are ``%.17g`` floats, ``1``/``0`` bools and
    decimal ints.
    """
    from itertools import chain

    names = sorted(table) if fmt == "json" else list(table)
    specs, columns = [], []
    for name in names:
        column = table[name]
        kinds = set(map(type, column))
        if len(kinds) != 1 or not kinds <= {int, float, bool}:
            found = ", ".join(sorted(kind.__name__ for kind in kinds))
            raise TypeError(f"column {name!r} must hold one of int, float or bool, not {found}")
        kind = kinds.pop()
        if fmt == "csv":
            specs.append("%.17g" if kind is float else "%d")
        else:
            specs.append("%s")  # int.__repr__ and float.__repr__, as json prints them
            if kind is float:
                column = [v if math.isfinite(v) else "null" for v in column]
            elif kind is bool:
                column = ["true" if v else "false" for v in column]
        columns.append(column)
    if fmt == "json":
        keys = (json.dumps(name).replace("%", "%%") for name in names)
        row = "  {\n" + ",\n".join(f"    {key}: {spec}" for key, spec in zip(keys, specs)) + "\n  }"
        head, sep, tail = "[\n", ",\n", "\n]\n"
    else:
        row = ",".join(specs)
        head, sep, tail = ",".join(names) + "\n", "\n", "\n"
    cells = tuple(chain.from_iterable(zip(*columns)))
    path.write_text(head + sep.join([row] * len(columns[0])) % cells + tail)


def _jsonable(value):
    """Replace NaN/inf with None so the output is strict JSON."""
    if isinstance(value, dict):
        return {key: _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def cmd_estimate(args) -> int:
    if args.input != "-":
        raw = read_input(args.input)
    elif sys.stdin is None:  # Python's stdin when fd 0 was closed at startup
        raise InvalidSpec("cannot read stdin: it is closed")
    else:
        raw = sys.stdin.buffer.read()
    outcome, mechanism, alpha = parse_count_table(decode_json(raw, "input"))
    bundle = build_bundle(outcome, mechanism)

    warnings = list(bundle.warnings)
    result = {
        "mechanism": mechanism.kind,
        "alpha": alpha,
        "n": outcome.n,
        "n_t": outcome.n_t,
        "p_hat": bundle.p_hat,
        "p0_hat": bundle.p0_hat,
        "p0s_hat": list(bundle.p0s_hat),
        "rho_hat": list(bundle.rho_hat),
        "pi_hat": bundle.pi_hat,
        "i_t_hat": bundle.i_t_hat,
        "i_c_hat": bundle.i_c_hat,
    }
    empty = [s for s in range(outcome.s) if outcome.n_ts[s] == 0]
    if empty:
        warnings.append(f"symptom classes without tested individuals: {empty}")

    v = bundle.variances
    try:
        if v.degenerate:
            warnings.append("a class positive rate is 0 or 1; its variance contribution is zero")
        # both or neither: a negative variance leaves no sigma behind
        result["sigma_p"], result["sigma_p0"] = sigma_p(v, outcome.n), sigma_p0(v, outcome.n)
        for target, est, sig in (
            ("ci_p", bundle.p_hat, result["sigma_p"]),
            ("ci_p0", bundle.p0_hat, result["sigma_p0"]),
        ):
            try:
                ci = ci_logit_prevalence(est, sig, alpha)
                result[target] = [ci.lo, ci.hi]
            except BoundaryEstimate:
                result[target] = None
                warnings.append(f"{target} undefined: estimate on the boundary")
        if 0.0 < bundle.p_hat < 1.0 and 0.0 < bundle.p0_hat < 1.0:
            result["sigma_i_t"] = sigma_it(v, bundle.p_hat, bundle.p0_hat, outcome.n)
            ci = ci_active_info(bundle.i_t_hat, result["sigma_i_t"], alpha)
            result["ci_i_t"] = [ci.lo, ci.hi]
        else:
            result["sigma_i_t"] = None
            result["ci_i_t"] = None
    except PrevBiasError as exc:
        warnings.append(f"standard errors unavailable: {exc}")

    result["warnings"] = warnings
    print(json.dumps(_jsonable(result), indent=2, sort_keys=True))
    return 0


def cmd_run(args) -> int:
    import hashlib

    from .experiments import run_experiment  # numpy, which `estimate` does without

    cfg, raw = load_scenario(args.config, args.seed)
    report = run_experiment(cfg)
    out_dir = Path(args.out_dir)

    def row_table(names):
        return {name: [getattr(row, name) for row in report.rows] for name in names}

    tables = {
        "activeinfo": row_table(ACTIVEINFO_COLUMNS),
        "rmse": row_table(RMSE_COLUMNS),
        "coverage": row_table(COVERAGE_COLUMNS),
        "cifan": report.fan,
    }
    files = {key: out_dir / f"{cfg.label}_{key}.{args.format}" for key in tables}
    manifest = {
        "label": cfg.label,
        "version": __version__,
        "seed": cfg.seed,
        "config_sha256": hashlib.sha256(raw).hexdigest(),
        "n_grid": list(cfg.n_grid),
        "replicates": cfg.replicates,
        "alpha": cfg.alpha,
        "mechanism": cfg.mechanism.kind,
        "format": args.format,
        "files": {key: path.name for key, path in files.items()},
    }
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for key, table in tables.items():
            _write_table(files[key], table, args.format)
        (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    except OSError as exc:  # a runtime failure, reported in one line
        raise PrevBiasError(f"cannot write {exc.filename or out_dir}: {exc.strerror or exc}") from exc
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prevbias",
        description="Biased-testing prevalence estimation and Monte Carlo studies",
    )
    parser.add_argument("--version", action="version", version=f"prevbias {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="estimate prevalence from a count table")
    est.add_argument("--input", default="-", help="count-table JSON file, or - for stdin")
    est.set_defaults(func=cmd_estimate)

    run = sub.add_parser("run", help="run a scenario config and write report files")
    run.add_argument("--config", required=True, help="scenario JSON file")
    run.add_argument("--seed", type=int, default=None, help="override the config seed")
    run.add_argument("--out-dir", default=".", help="directory for the report files")
    run.add_argument(
        "--threads",
        type=int,
        default=None,
        help="accepted for compatibility; has no effect on the output or the speed",
    )
    run.add_argument("--format", choices=("csv", "json"), default="csv")
    run.set_defaults(func=cmd_run)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not in the flush at exit
        return status
    except BrokenPipeError:
        # Python flushes stdout again at exit: send that flush to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except InvalidSpec as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PrevBiasError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if args.command == "estimate" else 3
    except Exception as exc:
        import traceback

        traceback.print_exc(file=sys.stderr)
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
