"""YAML experiment configuration: schema, presets, validation, builders.

A config file is a mapping with the sections below; every key is optional
and falls back first to the named ``preset`` (if any), then to the package
defaults.  Unknown keys raise ConfigError naming the key, as do invariant
violations, so a typo cannot silently change an experiment.

Bundled presets fig1..fig7 cover the standard demonstration scenarios:
N = 3 (fig7: N = 5), dimensionless damping a1 = 0.01, patch at (0, 0.1)
(fig6: (0, 1e-8)), velocity sensor at x0 in {0.095, 0.6, 0.98}, equal
11-harmonic forcing on the first three modes bounded by 11 including the
fundamental resonance, observer rate 34 (fig2: 64).
"""

import copy
import math
import numbers
import os
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import numpy as np
import yaml

from .beam import BeamParams, PhysicalBeam, nondimensionalize
from .errors import ConfigError
from .modal import DampingModel, Placement, assemble
from .signals import (
    NoiseSpec,
    NoiseWaveform,
    build_disturbance,
    constant_disturbance,
    polyharmonic_disturbance,
    tail_disturbance,
)
from .simulate import Coupling, SimConfig
from .synthesis import GainSet, tune_gains

OUTPUT_DIR_ENV = "PIEZOBEAM_OUT"

DEFAULTS = {
    "label": None,
    "beam": {"a1": 0.01, "a2": 1.0, "physical": None},
    "N": 3,
    "placement": {"x1": 0.0, "x2": 0.1, "x0": 0.095, "s1": 0.0, "s2": 1.0},
    "damping": "structural",
    "disturbance": {
        "kind": "polyharmonic",
        "driven_modes": 3,
        "harmonics": 11,
        "bound": None,      # polyharmonic falls back to 11
        "resonance": True,
        "modes": None,      # kind: custom
        "values": None,     # kind: constant
        "f0": None,         # kind: tail
        "tail_modes": None,
        "regime": "uniform",
    },
    "noise": {
        "bound": 0.01,
        "seed": 1234,
        "waveform": "uniform_hold",
        "hold": None,
        "frequency": 25.0,
        "phase": 0.0,
    },
    "gains": {
        "strategy": "tune",
        "lambda_grid": [6.0, 10.0, 14.0, 18.0, 24.0, 30.0],
        "lambda_L": 34.0,
        "F_bound": None,
        "eps_bound": None,
        "K": None,
        "L": None,
    },
    "sim": {
        "t_final": 12.0,
        "dt": 2.5e-4,
        "residual_modes": 5,
        "coupling": "truncated",
        "seed": 7,
        "z0": None,
        "z_hat0": None,
        "residual0": None,
    },
    "output": {"dir": None},
    "sweep": {"parameter": None, "values": None},
}

PRESETS = {
    # sensor at the patch edge, observer rate 34
    "fig1": {"label": "fig1"},
    # same placement, higher observer gain: stronger peaking
    "fig2": {"label": "fig2", "gains": {"lambda_L": 64.0}},
    # sensor near the left patch edge / right beam end / mid-beam
    "fig3": {"label": "fig3", "placement": {"x0": 0.095}},
    "fig4": {"label": "fig4", "placement": {"x0": 0.98}},
    "fig5": {"label": "fig5", "placement": {"x0": 0.6}},
    # vanishing patch width
    "fig6": {"label": "fig6", "placement": {"x2": 1.0e-8, "x0": 0.6}},
    # five retained modes
    "fig7": {"label": "fig7", "N": 5, "placement": {"x0": 0.98}},
}


def _merge(base, override, path=""):
    """Deep-merge ``override`` into ``base``; unknown keys are errors."""
    out = copy.deepcopy(base)
    for key, value in override.items():
        where = f"{path}.{key}" if path else str(key)
        if key not in base:
            raise ConfigError(f"unknown config key '{where}'")
        if isinstance(base[key], dict) and isinstance(value, dict):
            out[key] = _merge(base[key], value, where)
        else:
            out[key] = copy.deepcopy(value)
    return out


@dataclass
class ExperimentConfig:
    """Fully validated experiment description built from one config file."""

    params: BeamParams
    N: int
    placement: Placement
    damping: DampingModel
    disturbance: object
    noise: NoiseSpec
    gain_strategy: str
    lambda_grid: list
    lambda_L: float
    F_bound: float
    eps_bound: float
    explicit_K: np.ndarray
    explicit_L: np.ndarray
    sim: SimConfig
    out_dir: str
    label: str
    sweep_parameter: str
    sweep_values: list
    resolved: dict = field(repr=False, default=None)

    def build_system(self):
        return assemble(self.params, self.N, self.placement, self.damping)

    def build_gains(self, system):
        """GainSet per the configured strategy; None for strategy 'none'."""
        if self.gain_strategy == "none":
            return None
        if self.gain_strategy == "explicit":
            return GainSet.from_matrices(system, self.explicit_K, self.explicit_L)
        return tune_gains(
            system, self.F_bound, self.eps_bound, self.lambda_grid,
            lambda_L=self.lambda_L,
        )


@contextmanager
def _coerced(where):
    """Report a value of the wrong type or form under ``where`` as a
    ConfigError: the one path by which a malformed value becomes exit 2."""
    try:
        yield
    except (TypeError, ValueError) as exc:   # ConfigError included
        raise ConfigError(f"{where}: {exc}") from None


def _vector(value):
    """A YAML list of numbers as a 1-D float array."""
    out = np.asarray(value, dtype=float)
    if out.ndim != 1:
        raise ValueError(f"{value!r} is not a list of numbers")
    return out


def _check_finite(value, where):
    """Reject a value under ``where`` that reads as a NaN or infinite number
    (YAML .nan/.inf, or text such as nan or 1e999), naming its key."""
    if isinstance(value, dict):
        for key, item in value.items():
            _check_finite(item, f"{where}.{key}" if where else str(key))
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            _check_finite(item, f"{where}[{i}]")
    elif where not in ("label", "output.dir"):      # the free-text keys
        try:
            finite = math.isfinite(float(value))
        except OverflowError:        # an integer beyond the float range
            finite = False
        except (TypeError, ValueError):
            return                   # not a number: coercion reports it
        if not finite:
            raise ConfigError(f"{where}: {value!r} is not a finite number")


def _section(raw, name):
    value = raw[name]
    if not isinstance(value, dict):
        raise ConfigError(f"section '{name}' must be a mapping")
    return value


def _build_params(sec):
    if sec.get("physical"):
        phys = sec["physical"]
        if not isinstance(phys, dict):
            raise ConfigError("beam.physical must be a mapping")
        with _coerced("beam.physical"):
            return nondimensionalize(PhysicalBeam(**phys))
    with _coerced("beam"):
        return BeamParams.dimensionless(a1=float(sec["a1"]), a2=float(sec["a2"]))


def _build_disturbance(sec, params):
    kind = sec["kind"]
    if kind == "polyharmonic":
        bound = 11.0 if sec["bound"] is None else float(sec["bound"])
        return polyharmonic_disturbance(
            params,
            driven_modes=int(sec["driven_modes"]),
            count=int(sec["harmonics"]),
            bound=bound,
            resonance=bool(sec["resonance"]),
        )
    if kind == "custom":
        if not sec.get("modes"):
            raise ConfigError("disturbance.modes required for kind 'custom'")
        return build_disturbance(sec["modes"], bound=sec.get("bound"))
    if kind == "constant":
        if sec.get("values") is None:
            raise ConfigError("disturbance.values required for kind 'constant'")
        return constant_disturbance([float(v) for v in sec["values"]])
    if kind == "tail":
        if sec.get("f0") is None or sec.get("tail_modes") is None:
            raise ConfigError(
                "disturbance.f0 and disturbance.tail_modes required for kind 'tail'"
            )
        return tail_disturbance(
            params, float(sec["f0"]), int(sec["tail_modes"]), sec["regime"]
        )
    raise ConfigError(f"disturbance.kind: unknown kind '{kind}'")


def _enum(cls, value, where):
    try:
        return cls(value)
    except ValueError:
        options = ", ".join(m.value for m in cls)
        raise ConfigError(f"{where}: '{value}' is not one of {options}") from None


def sweep_placement(base, parameter, value):
    """Placement of one sweep point: ``base`` with x0 or [x1, x2] replaced."""
    names = ("x0",) if parameter == "x0" else ("x1", "x2")
    values = [value] if parameter == "x0" else value
    if not (isinstance(values, (list, tuple)) and len(values) == len(names)
            and all(isinstance(v, numbers.Real) and not isinstance(v, bool)
                    for v in values)):
        what = "a number" if parameter == "x0" else "an [x1, x2] pair of numbers"
        raise ConfigError(f"sweep.values: {value!r} is not {what}")
    try:
        return replace(base, **{k: float(v) for k, v in zip(names, values)})
    except ValueError as exc:
        raise ConfigError(f"sweep.values: {exc}") from None


def resolve_config(data):
    """Merge (defaults <- preset <- user data) and build ExperimentConfig."""
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError("config root must be a mapping")
    data = dict(data)
    preset_name = data.pop("preset", None)
    merged = DEFAULTS
    if preset_name is not None:
        if not isinstance(preset_name, str) or preset_name not in PRESETS:
            known = ", ".join(sorted(PRESETS))
            raise ConfigError(f"preset: unknown preset '{preset_name}' ({known})")
        merged = _merge(merged, PRESETS[preset_name])
    merged = _merge(merged, data)
    _check_finite(merged, "")

    params = _build_params(_section(merged, "beam"))

    with _coerced("N"):
        N = int(merged["N"])
        if N < 1:
            raise ValueError(f"N must be >= 1, got {N}")

    psec = _section(merged, "placement")
    with _coerced("placement"):
        placement = Placement(**{k: float(v) for k, v in psec.items()})

    damping = _enum(DampingModel, merged["damping"], "damping")

    dsec = _section(merged, "disturbance")
    with _coerced("disturbance"):
        disturbance = _build_disturbance(dsec, params)

    nsec = _section(merged, "noise")
    with _coerced("noise"):
        noise = NoiseSpec(
            bound=float(nsec["bound"]),
            seed=int(nsec["seed"]),
            waveform=_enum(NoiseWaveform, nsec["waveform"], "noise.waveform"),
            hold=None if nsec["hold"] is None else float(nsec["hold"]),
            frequency=float(nsec["frequency"]),
            phase=float(nsec["phase"]),
        )

    gsec = _section(merged, "gains")
    strategy = gsec["strategy"]
    if strategy not in ("tune", "explicit", "none"):
        raise ConfigError(
            f"gains.strategy: '{strategy}' is not one of tune, explicit, none"
        )
    explicit_K = explicit_L = None
    if strategy == "explicit":
        if gsec["K"] is None or gsec["L"] is None:
            raise ConfigError("gains.K and gains.L required for strategy 'explicit'")
        with _coerced("gains"):
            explicit_K = _vector(gsec["K"])
            explicit_L = _vector(gsec["L"])
        if explicit_K.shape != (2 * N,) or explicit_L.shape != (2 * N,):
            raise ConfigError(f"gains.K and gains.L must have length 2N = {2 * N}")

    with _coerced("gains"):
        lambda_grid = _vector(gsec["lambda_grid"] or []).tolist()
        lambda_L = None if gsec["lambda_L"] is None else float(gsec["lambda_L"])
        F_bound = float(disturbance.force_vector_bound(N, params.a2)
                        if gsec["F_bound"] is None else gsec["F_bound"])
        eps_bound = float(noise.bound if gsec["eps_bound"] is None
                          else gsec["eps_bound"])

    ssec = _section(merged, "sim")
    with _coerced("sim"):
        sim = SimConfig(
            t_final=float(ssec["t_final"]),
            dt=None if ssec["dt"] is None else float(ssec["dt"]),
            residual_modes=int(ssec["residual_modes"]),
            coupling=_enum(Coupling, ssec["coupling"], "sim.coupling"),
            z0=None if ssec["z0"] is None else _vector(ssec["z0"]),
            z_hat0=None if ssec["z_hat0"] is None else _vector(ssec["z_hat0"]),
            residual0=(None if ssec["residual0"] is None
                       else _vector(ssec["residual0"])),
            seed=int(ssec["seed"]),
        )

    sweep = _section(merged, "sweep")
    if sweep["parameter"] is not None:
        if sweep["parameter"] not in ("x0", "patch"):
            raise ConfigError(
                f"sweep.parameter: '{sweep['parameter']}' is not one of x0, patch"
            )
        if not isinstance(sweep["values"], (list, tuple)) or not sweep["values"]:
            raise ConfigError("sweep.values must be a nonempty list")
        for value in sweep["values"]:
            sweep_placement(placement, sweep["parameter"], value)

    label = merged["label"] or preset_name or "run"
    out_dir = _section(merged, "output")["dir"]
    if out_dir is not None and not isinstance(out_dir, str):
        raise ConfigError(f"output.dir: {out_dir!r} is not a path")

    return ExperimentConfig(
        params=params, N=N, placement=placement, damping=damping,
        disturbance=disturbance, noise=noise,
        gain_strategy=strategy,
        lambda_grid=lambda_grid, lambda_L=lambda_L,
        F_bound=F_bound, eps_bound=eps_bound,
        explicit_K=explicit_K, explicit_L=explicit_L,
        sim=sim,
        out_dir=out_dir,
        label=str(label),
        sweep_parameter=sweep["parameter"],
        sweep_values=sweep["values"],
        resolved=merged,
    )


def load_config(path):
    """Parse and validate a YAML config file into an ExperimentConfig."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = yaml.safe_load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"config parse error in {path}: {exc}") from None
    return resolve_config(data)


def resolve_out_dir(config, cli_out=None):
    """Output directory: --out flag, config, $PIEZOBEAM_OUT, then ./out."""
    return (cli_out or config.out_dir or os.environ.get(OUTPUT_DIR_ENV)
            or "out")
