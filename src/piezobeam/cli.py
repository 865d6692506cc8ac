"""Command-line front end: check / tune / simulate / bounds / sweep.

Usage:
    piezobeam <subcommand> --config <path> [--out <dir>] [--seed <u64>]

All artifacts are CSV files written with 12 significant digits (the bytes
of ``%.12g``; every all-number table is formatted exactly by NumPy digit
tables, see ``write_csv``) and LF line endings, so repeated runs with the
same config and seed are byte-identical.
Exit codes: 0 success, 1 failed placement check, 2 configuration error,
3 infeasible placement / no feasible gain, 4 diverging simulation.
"""

import argparse
import sys
from dataclasses import replace
from functools import cache
from itertools import chain

import numpy as np

from .analysis import build_bound_report, performance_metrics, residual_bounds
from .config import load_config, resolve_out_dir
from .errors import (
    ConfigError,
    DivergenceError,
    InternalConsistencyError,
    PlacementError,
    UnstableMatrixError,
)
from .modal import DampingModel, assemble, mode_roots
from .simulate import TIMESERIES, simulate
from .synthesis import check_placement

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_DIVERGENCE = 4


def _fmt(value):
    """Decimal text with 12 significant digits."""
    return format(float(value), ".12g")


CSV_CHUNK_ROWS = 1024
_EXP = 290          # decimal exponents the tables cover
_ZERO = 18 * 24     # patterns of +0 and -0; _ZERO + 2 keeps no byte
_TIE_MARGIN = 0.4997   # below 0.5 - 2.44e-4, see _write_array


def _row_format(row):
    """%-format of one row: strings as they are, numbers as ``_fmt``."""
    return ",".join("%s" if isinstance(v, str) else "%.12g"
                    for v in row) + "\n"


@cache
def _record_tables():
    """Lookup tables of ``_write_array``, built on its first call.

    A value's text is cut from a 40-byte record: "-0.000", 12 digits each
    followed by a dot slot, "e", the exponent's sign and 3 digits, and the
    separator.  Its pattern -- notation class (fixed for exponents -4..11,
    e+dd, e+ddd), trailing zeros and sign -- selects the bytes kept: the
    last table holds the kept head bytes and a 0xff mask for the others.
    """
    g = np.arange(10000)
    quad = np.full((10000, 8), ord("."), np.uint8)      # "d.d.d.d."
    quad[:, ::2] = g[:, None] // [1000, 100, 10, 1] % 10 + ord("0")
    tz2 = 2 * sum(g % p == 0 for p in (10, 100, 1000, 10000)).astype(np.uint8)
    x = range(-_EXP, _EXP + 1)
    exp = "".join(f"e{v:+04d}\0\0\0" for v in x).encode()
    cls = [v + 4 if -4 <= v < 12 else 16 + (abs(v) >= 100) for v in x]
    keep = np.zeros((19, 12, 2, 40), bool)   # class, trailing zeros, sign
    keep[:18, :, 1, 0] = keep[:18, :, :, 37] = True     # minus, separator
    for c, t in np.ndindex(18, 12):
        k, x0, m = 12 - t, c - 4, keep[c, t]
        if c >= 16:                                     # d.ddde+dd(d)
            x0, m[:, 32:37], m[:, 34] = 0, True, c == 17
        elif x0 < 0:                                    # 0.000ddd
            m[:, 1:2 - x0] = True
        m[:, 8:8 + 2 * max(k, x0 + 1):2] = True
        m[:, 9 + 2 * x0] |= 0 <= x0 < k - 1             # decimal point
    keep[18, 0, :, 1] = keep[18, 0, :, 37] = keep[18, 0, 1, 0] = True  # +-0
    keep = keep.reshape(-1, 40)
    return (quad.view(np.uint64).ravel(), tz2, 24 * np.array(cls),
            np.frombuffer(exp, np.uint64),
            np.array([float(f"1e{11 - v}") for v in x]),   # correctly rounded
            (keep * np.frombuffer(b"-0.000\0\0" + b"\xff" * 32, np.uint8)
             ).view(np.uint64))


@np.errstate(all="ignore")     # 0, nan and inf warn; ``ok`` sorts them out
def _write_array(fh, rows):
    """Write a 2-D float array as CSV bytes, CSV_CHUNK_ROWS rows at a time.

    With e = floor(log10|v|), y = |v| * 10**(11 - e) is off by at most 2 ulp
    of 1e12 = 2.44e-4 (one correctly rounded power of ten, one product), so
    its nearest integer m is the 12-digit mantissa %.12g prints wherever y
    is in [1e11, 1e12 - 0.5) and |y - m| < _TIE_MARGIN <= 0.5 - 2.44e-4;
    +-0 has its own pattern.  Rows with a value that fails this go through
    ``_fmt``: nan, inf, |v| outside [1e-290, 1e291) (beyond the tables,
    whose index clips), and values within 3e-4 of a tie (6e-4 of random
    values) or next to a power of ten.  Such a row's records keep no byte;
    its text (at most 20 bytes a value) is written over their start, so
    the one pass that drops the zero bytes -- ``bytes.translate`` of a copy
    of only the records the slice filled -- leaves every row in place.
    """
    quad, tz2, base, expw, p10, keep = _record_tables()
    width = rows.shape[1]
    sep = np.array([ord(",")] * (width - 1) + [ord("\n")], np.uint64) << 40
    text = np.empty((min(len(rows), CSV_CHUNK_ROWS) * width, 5), np.uint64)
    chars = text.data.cast("B")             # the records' bytes
    for i0 in range(0, len(rows), CSV_CHUNK_ROWS):
        block = rows[i0 : i0 + CSV_CHUNK_ROWS]
        v = block.ravel()
        y = np.abs(v, dtype=np.float64)
        ei = (np.floor(np.log10(y)) + _EXP).astype(np.intp)
        y *= p10.take(ei, mode="clip")
        m = np.rint(y)
        ok = ((np.abs(y - m) < _TIE_MARGIN) & (y >= 1e11)
              & (y < 999999999999.5))
        g2 = m.astype(np.int64)         # 12 digits: g0 g1 g2, 4 each
        g0 = g2 // 10**8
        g2 -= g0 * 10**8
        g1 = g2 // 10**4
        g2 -= g1 * 10**4
        tz = tz2.take(g2, mode="clip")
        z = np.flatnonzero(g2 == 0)
        tz[z] += tz2[g1[z]] + (g1[z] == 0) * tz2.take(g0[z], mode="clip")
        pat = base.take(ei, mode="clip") + tz + np.signbit(v)
        zero = np.flatnonzero(v == 0)
        pat[zero], ok[zero] = _ZERO + np.signbit(v[zero]), True
        bad = ~ok.reshape(-1, width).all(1)
        pat.reshape(-1, width)[bad] = _ZERO + 2
        t = text[: v.size]
        keep.take(pat, axis=0, out=t, mode="clip")
        for j, gj in enumerate((g0, g1, g2), 1):
            t[:, j] &= quad.take(gj, mode="clip")
        t.reshape(-1, width, 5)[..., 4] &= (
            expw.take(ei, mode="clip").reshape(-1, width) | sep)
        # the rows that failed: their text where their zeroed records were
        for i, row in zip(np.flatnonzero(bad).tolist(), block[bad].tolist()):
            line = (",".join(map(_fmt, row)) + "\n").encode()
            chars[40 * width * i : 40 * width * i + len(line)] = line
        fh.write(t.tobytes().translate(None, b"\0"))


def write_csv(path, header, rows):
    """Write a table of numbers and text cells with deterministic bytes.

    Rows that are not an array are read once.  A table that converts to one
    2-D float array (every cell a number) goes through ``_write_array``,
    whose text is exact by construction: the bytes of ``%.12g`` of each
    value (rows holding nan, inf, a value beyond 1e+-290 or one near a
    12-digit rounding tie fall back to ``_fmt``).  A table with a text cell
    is written by one %-format string: text as it is, numbers as ``_fmt``.
    An output directory that cannot be created (a file in its place or on
    its path) is a ConfigError naming it, raised before the file is opened;
    so is an output file that cannot be opened (a directory in its place).
    """
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
    except OSError as exc:      # a file in the way, no permission, ...
        raise ConfigError(f"cannot create output directory {path.parent}: "
                          f"{exc.strerror}") from None
    if not isinstance(rows, np.ndarray):
        rows = list(rows)
    try:
        table = np.asarray(rows, dtype=np.float64)
    except ValueError:      # a text cell (or rows of unequal length)
        table = None
    try:
        fh = open(path, "wb")
    except OSError as exc:      # a directory in its place, no permission, ...
        raise ConfigError(f"cannot open output file {path}: "
                          f"{exc.strerror}") from None
    with fh:
        fh.write((",".join(header) + "\n").encode())
        if table is not None and table.ndim == 2 and table.shape[1]:
            _write_array(fh, table)
        else:
            fh.write(("".join(map(_row_format, rows))
                      % tuple(chain.from_iterable(rows))).encode())
    return path


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
    rows = [(name, getattr(gains, name)) for name in (
        "lambda_L", "lambda_K", "K_norm", "L_norm", "BK_norm")]
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
        out_dir / f"{config.label}_timeseries.csv", TIMESERIES,
        result.timeseries,
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
    with config.bound_overflow():
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

    sups = res.simulated_sup
    rows = list(zip(res.modes, res.per_mode_bound,
                    [""] * len(res.modes) if sups is None else sups,
                    *(mode_roots(config.params, res.modes, model)[0].real
                      for model in DampingModel)))
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


@cache
def _parser():
    """The argument parser of ``main``, built once per process."""
    parser = argparse.ArgumentParser(
        prog="piezobeam",
        description="Observer-based vibration control of a patched beam",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="YAML config path")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--seed", type=int, default=None,
                        help="override noise and initial-state seeds")
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)

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
