"""The config key table: the README's config block, the range edges, and a
no-traceback property test driven from the table through ``cli.main``."""

import contextlib
import importlib.util
import io
import math
import re
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from piezobeam.cli import main
from piezobeam.config import KEYS, PRESETS, load_config, resolve_config

README = Path(__file__).resolve().parents[1] / "README.md"
WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
COMMANDS = ("check", "tune", "simulate", "bounds", "sweep")


def run(data, command, tmp):
    """cli.main on ``data``: (exit code, stdout, stderr)."""
    path = Path(tmp) / "cfg.yaml"
    path.write_text(yaml.safe_dump(data))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, "--config", str(path), "--out",
                     str(Path(tmp) / "out")])
    return code, out.getvalue(), err.getvalue()


def flatten(data):
    """A nested config mapping as dotted keys."""
    flat = {}
    for name, value in data.items():
        if name in KEYS:
            flat[name] = value
        else:
            flat.update((f"{name}.{sub}", item) for sub, item in value.items())
    return flat


def nested(flat):
    """Dotted keys back into a nested config mapping."""
    data = {}
    for key, value in flat.items():
        section, _, name = key.partition(".")
        if name:
            data.setdefault(section, {})[name] = value
        else:
            data[key] = value
    return data


def upper(key):
    """The finite upper end of the key's range, or None."""
    limits = KEYS[key][2:]
    return limits[0][1] if limits and math.isfinite(limits[0][1]) else None


RANGED = [key for key in KEYS if upper(key) is not None]


# ---------------------------------------------------------------------------
# the README config block
# ---------------------------------------------------------------------------

def test_readme_config_block_matches_the_key_table():
    shown = flatten(yaml.safe_load(readme_config_block()))
    assert set(shown) == set(KEYS)
    examples = {"label", "disturbance.bound", "sweep.parameter",
                "sweep.values"}
    for key, value in shown.items():
        if key not in examples:
            assert value == KEYS[key][1], key
    # the examples are valid values
    resolve_config(nested(shown))


# ---------------------------------------------------------------------------
# libyaml and the pure-Python loader
# ---------------------------------------------------------------------------

def readme_config_block():
    blocks = re.findall(r"```yaml\n(.*?)```", README.read_text(), re.S)
    return next(b for b in blocks if "beam:" in b)


def workload_configs():
    """One config of each benchmark workload (perfbench is not a package)."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {name: yaml.safe_dump(module.job_configs(name, 1)[0][2])
            for name in module.WORKLOADS}


LOADER_CASES = {
    **{name: f"preset: {name}\n" for name in PRESETS},
    "readme": readme_config_block(),
    **workload_configs(),
}


@pytest.mark.parametrize("text", LOADER_CASES.values(), ids=LOADER_CASES)
def test_both_yaml_loaders_resolve_equal_configs(tmp_path, monkeypatch, text):
    path = tmp_path / "cfg.yaml"
    path.write_text(text)
    fast = load_config(path)
    monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    slow = load_config(path)
    libyaml = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    assert (yaml.load(text, Loader=libyaml)
            == yaml.load(text, Loader=yaml.SafeLoader))
    with np.printoptions(floatmode="unique", threshold=sys.maxsize):
        assert repr(fast) == repr(slow)


@pytest.mark.parametrize("libyaml", [True, False])
def test_malformed_yaml_is_a_parse_error(tmp_path, monkeypatch, libyaml):
    if not libyaml:
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    path = tmp_path / "cfg.yaml"
    path.write_text("N: [3\nplacement: {x0: 0.5\n")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["check", "--config", str(path)])
    assert code == 2
    assert err.getvalue().startswith(f"config error: config parse error in "
                                     f"{path}: ")


# ---------------------------------------------------------------------------
# ranges and whole numbers through cli.main
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("command", ["check", "tune"])
@pytest.mark.parametrize("key", [
    "beam.a1", "placement.s1", "placement.s2", "N", "disturbance.harmonics",
    "disturbance.driven_modes", "disturbance.tail_modes", "sim.residual_modes",
])
def test_huge_values_are_refused_naming_their_key(tmp_path, command, key):
    # a1, s1 and s2 near 1e308 ended in a LinAlgError traceback or a false
    # PBH disagreement; the counts would have allocated without bound
    data = nested({key: 1.0e308})
    if key == "disturbance.tail_modes":
        data["disturbance"].update(kind="tail", f0=1.0)
    code, out, err = run({"preset": "fig1", **data}, command, tmp_path)
    assert code == 2
    assert err.startswith(f"config error: {key}: 1e+308 is outside")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key", RANGED)
def test_range_edges(tmp_path, key):
    """At the upper edge check and tune return a documented code; just
    above it the key is refused."""
    high = upper(key)
    extra = ({"disturbance": {"kind": "tail", "f0": 1.0}}
             if key == "disturbance.tail_modes" else {})
    for value, codes in ((high, {0, 1, 3}),
                         (high + 1 if isinstance(high, int)
                          else high * (1 + 1e-9), {2})):
        data = nested({key: value})
        for section, entries in extra.items():
            data.setdefault(section, {}).update(entries)
        for command in ("check", "tune"):
            code, out, err = run({"preset": "fig1", **data}, command,
                                 tmp_path)
            assert code in codes, (value, command, err)
            assert "Traceback" not in err
            if code == 2:
                assert err.startswith(f"config error: {key}: ")


@pytest.mark.parametrize("value", [3.5, "3.5", True])
def test_count_that_is_not_a_whole_number_is_refused(tmp_path, value):
    # N: 3.5 used to be truncated to 3
    code, _, err = run({"N": value}, "check", tmp_path)
    assert code == 2
    assert err.startswith("config error: N: ")


def test_whole_float_count_is_accepted():
    assert resolve_config({"N": 4.0}).N == 4


def test_largest_noise_seed_reaches_the_spec_unchanged():
    cfg = resolve_config(yaml.safe_load(
        "noise: {seed: 18446744073709551615}"))
    assert cfg.noise.seed == 18446744073709551615
    assert type(cfg.noise.seed) is int


def test_physical_beam_obeys_the_dimensionless_ranges(tmp_path):
    physical = {"length": 1.0, "half_height": 1.0, "width": 1.0,
                "density": 1.0, "elastic_modulus": 1.0,
                "inertia_moment": 1.0, "damping": 1.0e6,
                "piezo_constant": 2.0, "patch_height": 0.1}
    code, _, err = run({"beam": {"physical": physical}}, "check", tmp_path)
    assert code == 2
    assert err.startswith("config error: beam.a1: 1000000.0 is outside")


# ---------------------------------------------------------------------------
# no traceback: valid configs and one-key mutations of them
# ---------------------------------------------------------------------------

# Valid examples keep N <= 6, one residual mode and horizons of at most 5000
# steps, so that 150 examples (max_examples below) run in a few seconds of
# the Tier-1 budget; they are derandomized, so every run checks the same
# ones.  Only the longer horizon passes the metrics' steady window, which
# sweep needs.
TINY = {"sim.dt": 5e-4, "sim.residual_modes": 1,
        "gains.lambda_grid": [6.0, 10.0], "gains.lambda_L": 34.0}
BASES = [
    {},
    {"disturbance.kind": "tail", "disturbance.f0": 1.0,
     "disturbance.tail_modes": 6},
    {"disturbance.kind": "custom",
     "disturbance.modes": [[[1.0, 9.87, 0.0], [0.5, 3.0, 0.1]]]},
    {"disturbance.kind": "constant", "disturbance.values": [1.0, 0.5]},
    {"gains.strategy": "explicit", "N": 1,
     "gains.K": [411.17, -17.94], "gains.L": [1.0, 50.0]},
    {"gains.strategy": "none", "noise.waveform": "sinusoidal",
     "sim.coupling": "full", "damping": "kelvin_voigt"},
    {"beam.physical": {"length": 1.0, "half_height": 1.0, "width": 1.0,
                       "density": 1.0, "elastic_modulus": 1.0,
                       "inertia_moment": 1.0, "damping": 0.01,
                       "piezo_constant": 2.0, "patch_height": 0.1}},
]


@st.composite
def valid_configs(draw):
    flat = {**TINY, **draw(st.sampled_from(BASES))}
    flat["sim.t_final"] = draw(st.sampled_from([0.02, 2.5]))
    if flat.get("gains.strategy") != "explicit":
        flat["N"] = draw(st.integers(1, 6))
    flat["placement.x0"] = draw(st.floats(0.01, 0.99))
    flat["placement.x2"] = draw(st.floats(0.02, 1.0))
    flat["sweep.parameter"] = "x0"
    flat["sweep.values"] = draw(st.lists(st.floats(0.01, 0.99), min_size=1,
                                         max_size=2))
    return flat


def bad_values(key, value):
    """Mutations of one key: wrong kind, null, NaN/inf, just outside the
    range and about 1e308."""
    kind = KEYS[key][0]
    out = [None, math.nan, math.inf, -math.inf, [1, "a"], {"a": 1},
           "abc" if isinstance(kind, str) else 5]
    if kind in ("list", "list?"):
        out += [[1.0e308] * max(1, len(value or []))]
    elif kind in ("mapping", "mapping?"):
        out += [{name: 1.0e308 for name in value or {"length": 1}}]
    else:
        out += [1.0e308, -1.0e308]
    if len(KEYS[key]) > 2:
        low, high = KEYS[key][2]
        for edge, step in ((low, -1), (high, 1)):
            if math.isfinite(edge):
                out.append(edge + step if isinstance(edge, int)
                           else edge + step * max(abs(edge) * 1e-9, 1e-300))
    return out


@st.composite
def configs(draw):
    flat = draw(valid_configs())
    if draw(st.booleans()):
        key = draw(st.sampled_from(sorted(KEYS)))
        flat[key] = draw(st.sampled_from(bad_values(key, flat.get(key))))
    return nested(flat)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=configs(), command=st.sampled_from(COMMANDS))
def test_every_config_exits_with_a_documented_code(data, command):
    with tempfile.TemporaryDirectory() as tmp:
        code, out, err = run(data, command, tmp)
    assert code in range(5), (code, err)
    assert "Traceback" not in err
    if code == 1:
        assert command == "check"
        assert "offending modes:" in out
