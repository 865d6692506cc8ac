"""Command-line front end: check / tune / simulate / bounds / sweep.

Usage:
    piezobeam <subcommand> --config <path> [--out <dir>] [--seed <u64>]

All artifacts are CSV files written with 12 significant digits and LF line
endings, so repeated runs with the same config and seed are byte-identical.
Exit codes: 0 success, 1 failed placement check, 2 configuration error,
3 infeasible placement / no feasible gain, 4 diverging simulation.
"""

import argparse
import sys
from dataclasses import replace
from functools import cache
from itertools import chain, islice

import numpy as np

from .analysis import (
    build_bound_report,
    damping_decay_rates,
    performance_metrics,
    residual_bounds,
)
from .config import load_config, resolve_out_dir
from .errors import (
    ConfigError,
    DivergenceError,
    InternalConsistencyError,
    PlacementError,
    UnstableMatrixError,
)
from .modal import DampingModel, assemble
from .simulate import simulate
from .synthesis import check_placement

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_DIVERGENCE = 4


def _fmt(value):
    """Decimal text with 12 significant digits."""
    return format(float(value), ".12g")


CSV_CHUNK_ROWS = 4096


@cache
def _number_format(width):
    """%-format of a row of ``width`` numbers; ``%.12g`` matches ``_fmt``."""
    return ",".join(["%.12g"] * width) + "\n"


def _row_format(row):
    """%-format of one row: strings as they are, numbers as ``_fmt``."""
    return ",".join("%s" if isinstance(v, str) else "%.12g"
                    for v in row) + "\n"


def _chunk_text(chunk):
    """CSV lines of a list of rows, formatted by one %-format string."""
    values = tuple(chain.from_iterable(chunk))
    try:
        return "".join([_number_format(len(row)) for row in chunk]) % values
    except TypeError:   # strings among the values
        return "".join([_row_format(row) for row in chunk]) % values


def write_csv(path, header, rows):
    """Write rows of numbers/strings with deterministic formatting.

    A 2-D float array is written in slices of CSV_CHUNK_ROWS rows, each
    through one %-format string; any other iterable of rows is iterated
    once and written a chunk of rows at a time.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        if (isinstance(rows, np.ndarray) and rows.ndim == 2
                and rows.dtype.kind == "f"):
            line = _number_format(rows.shape[1])
            for i0 in range(0, len(rows), CSV_CHUNK_ROWS):
                block = rows[i0 : i0 + CSV_CHUNK_ROWS]
                fh.write((line * len(block)) % tuple(block.ravel().tolist()))
        else:
            rows = iter(rows)
            while chunk := list(islice(rows, CSV_CHUNK_ROWS)):
                fh.write(_chunk_text(chunk))
    return path


def _timeseries_rows(result):
    """The timeseries table, one row per step, as an (n+1) x 6 array."""
    return np.column_stack([result.t, result.norm_e, result.norm_z, result.V,
                            result.y, result.norm_residual])


def cmd_check(config, out_dir):
    system = config.build_system()
    verdict = check_placement(system)
    print(f"observable:   {verdict.observable}")
    print(f"controllable: {verdict.controllable}")
    print(f"reason:       {verdict.closed_form_reason}")
    for w in verdict.warnings:
        print(f"warning:      {w}")
    if not verdict.ok:
        print(f"offending modes: {verdict.offending_modes}")
        return EXIT_CHECK_FAILED
    return EXIT_OK


def cmd_tune(config, out_dir):
    system = config.build_system()
    gains = config.build_gains(system)
    if gains is None:
        raise ConfigError("gains.strategy is 'none'; nothing to tune")
    rows = [("lambda_L", gains.lambda_L), ("lambda_K", gains.lambda_K),
            ("K_norm", gains.K_norm), ("L_norm", gains.L_norm),
            ("BK_norm", gains.BK_norm)]
    rows += [(f"K_{i}", v) for i, v in enumerate(gains.K)]
    rows += [(f"L_{i}", v) for i, v in enumerate(gains.L)]
    path = write_csv(out_dir / f"{config.label}_gains.csv",
                     ["name", "value"], rows)
    print(f"wrote {path}")
    print(f"lambda_L = {_fmt(gains.lambda_L)}  lambda_K = {_fmt(gains.lambda_K)}")
    return EXIT_OK


def cmd_simulate(config, out_dir):
    system = config.build_system()
    gains = config.build_gains(system)
    result = simulate(system, gains, config.disturbance, config.noise,
                      config.sim)
    path = write_csv(
        out_dir / f"{config.label}_timeseries.csv",
        ["t", "norm_e", "norm_z", "V", "y", "norm_residual"],
        _timeseries_rows(result),
    )
    print(f"wrote {path} ({len(result.t)} rows, dt = {_fmt(result.dt)})")
    try:
        metrics = performance_metrics(result)
    except ConfigError as exc:
        print(f"metrics skipped: {exc}")
        return EXIT_OK
    print(f"peak ||e|| = {_fmt(metrics.peak_e)} at t = {_fmt(metrics.t_peak)}")
    print(f"steady ||z|| = {_fmt(metrics.steady_z)}  "
          f"attenuation ratio = {_fmt(metrics.attenuation_ratio)}")
    return EXIT_OK


def cmd_bounds(config, out_dir):
    system = config.build_system()
    gains = config.build_gains(system)
    if gains is None:
        raise ConfigError("bounds require gains (strategy tune or explicit)")
    K_max = config.N + max(config.sim.residual_modes, 1)
    res = residual_bounds(config.params, config.disturbance.f_max, config.N,
                          K_max, config.damping)
    report = build_bound_report(system, gains, config.F_bound,
                                config.eps_bound)
    rows = [(name, getattr(report, name)) for name in (
        "lambda_L", "lambda_K", "L_norm", "BK_norm", "F_bound", "eps_bound",
        "e_bound_used", "e_steady_bound", "z_steady_bound",
        "kappa_L", "kappa_K",
    )]
    path = write_csv(out_dir / f"{config.label}_bounds.csv",
                     ["name", "value"], rows)
    print(f"wrote {path}")

    rates_struct = damping_decay_rates(
        config.params, DampingModel.STRUCTURAL, res.modes)
    rates_kv = damping_decay_rates(
        config.params, DampingModel.KELVIN_VOIGT, res.modes)
    rows = []
    for i, k in enumerate(res.modes):
        sup = res.simulated_sup[i] if res.simulated_sup is not None else ""
        rows.append((k, res.per_mode_bound[i], sup,
                     rates_struct[i], rates_kv[i]))
    path = write_csv(
        out_dir / f"{config.label}_residual.csv",
        ["mode", "amplitude_bound", "simulated_sup",
         "decay_rate_structural", "decay_rate_kelvin_voigt"],
        rows,
    )
    print(f"wrote {path}")
    print(f"tail bound (uniform forcing): {_fmt(res.tail_sum_uniform)}")
    print(f"tail bound (smooth forcing):  {_fmt(res.tail_sum_smooth)}")
    if res.decay_exponent is not None:
        print(f"simulated decay exponent:     {_fmt(res.decay_exponent)}")
    return EXIT_OK


def cmd_sweep(config, out_dir):
    if config.sweep_placements is None:
        raise ConfigError("sweep requires a 'sweep' section with parameter/values")
    rows = []
    for placement in config.sweep_placements:
        system = assemble(config.params, config.N, placement, config.damping)
        gains = config.build_gains(system)
        result = simulate(system, gains, config.disturbance, config.noise,
                          config.sim)
        m = performance_metrics(result)
        rows.append((
            placement.x0, placement.x1, placement.x2,
            gains.lambda_L if gains else 0.0,
            gains.lambda_K if gains else 0.0,
            m.peak_e, m.settle_time, m.steady_e, m.steady_z,
            m.force_sup, m.attenuation_ratio,
        ))
    path = write_csv(
        out_dir / f"{config.label}_sweep.csv",
        ["x0", "x1", "x2", "lambda_L", "lambda_K", "peak_e", "settle_time",
         "steady_e", "steady_z", "force_sup", "attenuation_ratio"],
        rows,
    )
    print(f"wrote {path} ({len(rows)} rows)")
    return EXIT_OK


COMMANDS = {
    "check": cmd_check,
    "tune": cmd_tune,
    "simulate": cmd_simulate,
    "bounds": cmd_bounds,
    "sweep": cmd_sweep,
}


def run(config, command, out_dir):
    """Dispatch one subcommand on a resolved config; returns the exit code."""
    from pathlib import Path
    return COMMANDS[command](config, Path(out_dir))


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="piezobeam",
        description="Observer-based vibration control of a patched beam",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="YAML config path")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--seed", type=int, default=None,
                        help="override noise and initial-state seeds")
    args = parser.parse_args(argv)

    try:
        config = load_config(args.config)
        if args.seed is not None:
            config.noise = replace(config.noise, seed=args.seed)
            config.sim = replace(config.sim, seed=args.seed)
        out_dir = resolve_out_dir(config, args.out)
        return run(config, args.command, out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (PlacementError, UnstableMatrixError,
            InternalConsistencyError) as exc:
        print(f"infeasible design: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except DivergenceError as exc:
        print(f"simulation diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE


if __name__ == "__main__":
    sys.exit(main())
