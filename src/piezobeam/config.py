"""YAML experiment configuration: the key table, presets and builders.

``KEYS`` is the one schema: dotted key -> (kind, default[, (low, high)]).
``resolve_config`` flattens the named ``preset`` and the file into dotted
keys over the defaults and coerces each value once by its kind: an unknown
key, the wrong kind, a NaN or infinite number and a value out of range are
ConfigErrors naming the key, so a typo cannot silently change an
experiment.  It then builds the typed records, whose constructors keep
their own checks.

Kinds: "float" (finite), "int" (whole, kept exact), "bool", "text", "list"
(of finite numbers, as an array), "mapping" (of finite numbers), "items"
(a list for a builder), or the admissible words, as a tuple or an Enum.
A trailing "?", or None among the words, admits null.

Bundled presets fig1..fig7 cover the standard demonstration scenarios:
N = 3 (fig7: N = 5), dimensionless damping a1 = 0.01, patch at (0, 0.1)
(fig6: (0, 1e-8)), velocity sensor at x0 in {0.095, 0.6, 0.98}, equal
11-harmonic forcing on the first three modes bounded by 11 including the
fundamental resonance, observer rate 34 (fig2: 64).
"""

import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, replace
from math import inf

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

# Ranges bound what no constructor checks.  Each admits every preset and
# benchmark config; a value above one used to overflow or to run unbounded.
KEYS = {
    "label": ("text?", None),
    # a1 > 2 overdamps every structural mode; above 1e3 eig(A - BK) misses
    # tune's targets (fig1: 1.1e-6 at 2e3, 1.5e-4 at 1e4), backward exact
    "beam.a1": ("float", 0.01, (-inf, 1e3)),
    # every force, F_bound and residual bound scale with a2; 1e308 overflows
    "beam.a2": ("float", 1.0, (-inf, 1e6)),
    "beam.physical": ("mapping?", None),
    # placed spectra meet their targets to 1e-10 up to here (patch x2 0.1037)
    "N": ("int", 3, (1, 60)),
    "placement.x1": ("float", 0.0),
    "placement.x2": ("float", 0.1),
    "placement.x0": ("float", 0.095),
    # sensor weights scale C (inf near 1e308); check's oracle divides them out
    "placement.s1": ("float", 0.0, (-1e6, 1e6)),
    "placement.s2": ("float", 1.0, (-1e6, 1e6)),
    "damping": (DampingModel, "structural"),
    "disturbance.kind": (("polyharmonic", "custom", "constant", "tail"),
                         "polyharmonic"),
    # modes past N + residual_modes (at most 260) are never driven
    "disturbance.driven_modes": ("int", 3, (0, 260)),
    # each driven mode stores its own comb of this many cosines
    "disturbance.harmonics": ("int", 11, (0, 100)),
    "disturbance.bound": ("float?", None),   # polyharmonic: None means 11
    "disturbance.resonance": ("bool", True),
    "disturbance.modes": ("items?", None),   # kind: custom
    "disturbance.values": ("list?", None),   # kind: constant
    "disturbance.f0": ("float?", None),      # kind: tail
    "disturbance.tail_modes": ("int?", None, (0, 260)),   # as driven_modes
    "disturbance.regime": (("uniform", "smooth"), "uniform"),
    "noise.bound": ("float", 0.01),
    "noise.seed": ("int", 1234),
    "noise.waveform": (NoiseWaveform, "uniform_hold"),
    # t / hold is cast to int64.  t <= 2^22 steps (2^24 values, dim >= 4)
    # of dt <= the cap, which is below 0.034 while M keeps mode 1's roots
    # (|root| = pi^2), so t / hold < 1.5e17 < 2^63; noise_samples refuses
    # the rest (explicit gains that pull every pole near 0)
    "noise.hold": ("float?", None, (1e-12, inf)),
    "noise.frequency": ("float", 25.0),
    "noise.phase": ("float", 0.0),
    "gains.strategy": (("tune", "explicit", "none"), "tune"),
    "gains.lambda_grid": ("list?", [6.0, 10.0, 14.0, 18.0, 24.0, 30.0]),
    "gains.lambda_L": ("float?", 34.0),
    # tune and bounds multiply these by ||L||, ||BK||, kappa and 1 / lambda,
    # together up to 1e10 on the presets (fig2); 1e308 overflows
    "gains.F_bound": ("float?", None, (0.0, 1e100)),
    "gains.eps_bound": ("float?", None, (0.0, 1e100)),
    "gains.K": ("list?", None),
    "gains.L": ("list?", None),
    "sim.t_final": ("float", 12.0),
    "sim.dt": ("float?", 2.5e-4),
    # R residual modes; undriven ones at rest stay 0 and are not stepped
    "sim.residual_modes": ("int", 5, (-inf, 200)),
    "sim.coupling": (Coupling, "truncated"),
    "sim.seed": ("int", 7),
    "sim.z0": ("list?", None),
    "sim.z_hat0": ("list?", None),
    "sim.residual0": ("list?", None),
    "output.dir": ("text?", None),
    "sweep.parameter": (("x0", "patch", None), None),
    "sweep.values": ("items?", None),
}
_SECTIONS = {}      # section -> the names of its keys within it
for _section, _, _name in (key.partition(".") for key in KEYS if "." in key):
    _SECTIONS.setdefault(_section, []).append(_name)

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


def _number(value, key):
    """A finite float from a number or numeric text (YAML's nan is text)."""
    try:
        if isinstance(value, bool):
            raise TypeError
        number = float(value)
    except OverflowError:           # an integer beyond the float range
        number = inf
    except (TypeError, ValueError):
        raise ConfigError(f"{key}: {value!r} is not a number") from None
    if not math.isfinite(number):
        raise ConfigError(f"{key}: {value!r} is not a finite number")
    return number


def _whole(value, key):
    """An int, exact when given one; a float only when it is whole."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    number = _number(value, key)
    if not number.is_integer():
        raise ConfigError(f"{key}: {value!r} is not a whole number")
    return int(number)


_TYPES = {"bool": bool, "text": str, "list": list, "items": list, "mapping": dict}


def _coerce(key, value):
    """``value`` of ``key`` coerced by its kind and checked against its range."""
    kind, _, *limits = KEYS[key]
    if not isinstance(kind, str):            # words, as a tuple or an Enum
        words = [getattr(w, "value", w) for w in kind]
        if value not in words:
            words = ", ".join(w for w in words if w is not None)
            raise ConfigError(f"{key}: {value!r} is not one of {words}")
        return kind(value) if isinstance(kind, type) else value
    if value is None and kind.endswith("?"):
        return None
    kind = kind.rstrip("?")
    if not isinstance(value, _TYPES.get(kind, object)):
        raise ConfigError(f"{key}: {value!r} is not of kind {kind}")
    coerced = value                         # bool, text and items as they are
    if kind == "float":
        coerced = _number(value, key)
    elif kind == "int":
        coerced = _whole(value, key)
    elif kind == "list":
        coerced = np.array([_number(x, f"{key}[{i}]")
                            for i, x in enumerate(value)])
    elif kind == "mapping":
        coerced = {name: _number(x, f"{key}.{name}")
                   for name, x in value.items()}
    if limits and not limits[0][0] <= coerced <= limits[0][1]:
        low, high = limits[0]
        raise ConfigError(f"{key}: {value!r} is outside [{low:g}, {high:g}]")
    return coerced


def _fields(v, section):
    """The coerced values of one section, keyed by their names within it."""
    return {name: v[f"{section}.{name}"] for name in _SECTIONS[section]}


def _flatten(data, into):
    """Overlay a config mapping on ``into`` as dotted keys."""
    for name, value in data.items():
        if name in KEYS:
            into[name] = value
        elif name not in _SECTIONS:
            raise ConfigError(f"unknown config key '{name}'")
        elif not isinstance(value, dict):
            raise ConfigError(f"section '{name}' must be a mapping")
        else:
            for sub, item in value.items():
                if f"{name}.{sub}" not in KEYS:
                    raise ConfigError(f"unknown config key '{name}.{sub}'")
                into[f"{name}.{sub}"] = item


@dataclass
class ExperimentConfig:
    """Fully validated experiment description built from one config file."""

    params: BeamParams
    N: int
    placement: Placement
    damping: DampingModel
    disturbance: object
    noise: NoiseSpec
    gains: dict     # the coerced gains section, read by build_gains
    lambda_L: float
    F_bound: float
    eps_bound: float
    sim: SimConfig
    out_dir: str
    label: str
    sweep_placements: list      # one Placement per sweep point, or None

    def build_system(self):
        return assemble(self.params, self.N, self.placement, self.damping)

    def build_gains(self, system):
        """GainSet per the configured strategy; None for strategy 'none'."""
        if self.gains["strategy"] == "none":
            return None
        if self.gains["strategy"] == "explicit":
            return GainSet.from_matrices(system, self.gains["K"], self.gains["L"])
        with self.bound_overflow():
            return tune_gains(
                system, self.F_bound, self.eps_bound,
                self.gains["lambda_grid"], lambda_L=self.lambda_L,
            )

    @contextmanager
    def bound_overflow(self):
        """Refuse an overflow of the bounds, which scale with eps_bound, as a
        ConfigError naming it and the (unranged) noise.bound it defaulted to."""
        key = "gains.eps_bound"
        if self.gains["eps_bound"] is None:
            key += f" (defaulted to noise.bound = {self.noise.bound:g})"
        with _coerced(f"{key}: the bounds overflow"), np.errstate(over="raise"):
            yield


@contextmanager
def _coerced(where):
    """Report a builder's refusal or overflow under ``where`` as a ConfigError:
    the one path by which a value the table admits can still exit 2."""
    try:
        yield
    except (TypeError, ValueError, ArithmeticError) as exc:  # ConfigError too
        raise ConfigError(f"{where}: {exc}") from None


def _build_params(v):
    if not v["beam.physical"]:
        with _coerced("beam"):
            return BeamParams.dimensionless(a1=v["beam.a1"], a2=v["beam.a2"])
    with _coerced("beam.physical"):
        params = nondimensionalize(PhysicalBeam(**v["beam.physical"]))
    for name in ("a1", "a2"):     # the derived values obey the same ranges
        _coerce(f"beam.{name}", getattr(params, name))
    return params


def _build_disturbance(d, params, model):
    if d["kind"] == "polyharmonic":
        return polyharmonic_disturbance(
            params, driven_modes=d["driven_modes"], count=d["harmonics"],
            bound=11.0 if d["bound"] is None else d["bound"],
            resonance=d["resonance"], damping_model=model,
        )
    needs = {"custom": ["modes"], "constant": ["values"],
             "tail": ["f0", "tail_modes"]}[d["kind"]]
    if any(d[name] is None for name in needs):
        # _coerced("disturbance") names the section
        raise ValueError(f"{' and '.join(needs)} required for kind "
                         f"'{d['kind']}'")
    if d["kind"] == "custom":
        return build_disturbance(d["modes"], bound=d["bound"])
    if d["kind"] == "constant":
        return constant_disturbance(d["values"])
    return tail_disturbance(params, d["f0"], d["tail_modes"], d["regime"],
                            model)


def _sweep_placement(base, parameter, value):
    """Placement of one sweep point: ``base`` with x0 or [x1, x2] replaced."""
    names = ("x0",) if parameter == "x0" else ("x1", "x2")
    values = [value] if parameter == "x0" else value
    if not isinstance(values, (list, tuple)) or len(values) != len(names):
        raise ConfigError(f"sweep.values: {value!r} is not an [x1, x2] pair")
    values = [_number(x, "sweep.values") for x in values]
    with _coerced("sweep.values"):
        return replace(base, **dict(zip(names, values)))


def resolve_config(data):
    """Overlay (defaults <- preset <- user data) and build ExperimentConfig."""
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError("config root must be a mapping")
    data = dict(data)
    preset_name = data.pop("preset", None)
    raw = {key: spec[1] for key, spec in KEYS.items()}
    if preset_name is not None:
        if not isinstance(preset_name, str) or preset_name not in PRESETS:
            known = ", ".join(sorted(PRESETS))
            raise ConfigError(f"preset: unknown preset '{preset_name}' ({known})")
        _flatten(PRESETS[preset_name], raw)
    _flatten(data, raw)
    v = {key: _coerce(key, value) for key, value in raw.items()}
    label = v["label"] or preset_name or "run"    # names the CSVs in out_dir
    if label in (".", "..") or {"/", os.sep, os.altsep} & set(label):
        raise ConfigError(f"label: {label!r} must be a plain file name: "
                          f"no path separator, not . or ..")

    params = _build_params(v)
    N = v["N"]
    with _coerced("placement"):
        placement = Placement(**_fields(v, "placement"))
    with _coerced("disturbance"):
        disturbance = _build_disturbance(_fields(v, "disturbance"), params,
                                         v["damping"])
    with _coerced("noise"):
        noise = NoiseSpec(**_fields(v, "noise"))
    with _coerced("sim"):
        sim = SimConfig(**_fields(v, "sim"))

    gains = _fields(v, "gains")
    K, L = gains["K"], gains["L"]
    if gains["strategy"] == "explicit" and (K is None or L is None):
        raise ConfigError("gains.K and gains.L required for strategy 'explicit'")
    if gains["strategy"] == "explicit" and not K.shape == L.shape == (2 * N,):
        raise ConfigError(f"gains.K and gains.L must have length 2N = {2 * N}")
    if gains["lambda_grid"] is None:
        gains["lambda_grid"] = []
    F_bound, eps_bound = gains["F_bound"], gains["eps_bound"]
    if F_bound is None:
        F_bound = disturbance.force_vector_bound(N, params.a2)

    sweep_placements = None
    if v["sweep.parameter"] is not None:
        if not v["sweep.values"]:
            raise ConfigError("sweep.values must be a nonempty list")
        sweep_placements = [_sweep_placement(placement, v["sweep.parameter"],
                                             value) for value in v["sweep.values"]]

    return ExperimentConfig(
        params=params, N=N, placement=placement, damping=v["damping"],
        disturbance=disturbance, noise=noise, gains=gains,
        lambda_L=gains["lambda_L"],
        F_bound=F_bound,
        eps_bound=noise.bound if eps_bound is None else eps_bound,
        sim=sim,
        out_dir=v["output.dir"],
        label=label,
        sweep_placements=sweep_placements,
    )


def load_config(path):
    """Parse and validate a YAML config file into an ExperimentConfig."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = yaml.load(fh, Loader=getattr(yaml, "CSafeLoader",
                                                yaml.SafeLoader))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except OSError as exc:          # a directory, no permission, ...
        raise ConfigError(
            f"cannot read config file {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8: {exc}") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"config parse error in {path}: {exc}") from None
    return resolve_config(data)


def resolve_out_dir(config, cli_out=None):
    """Output directory: --out flag, config, $PIEZOBEAM_OUT, then ./out."""
    return (cli_out or config.out_dir or os.environ.get(OUTPUT_DIR_ENV)
            or "out")
