import gc
import importlib
import io
import math
import re
import tracemalloc

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from piezobeam import analysis, cli
from piezobeam.cli import CSV_CHUNK_ROWS, _fmt, main, write_csv
from piezobeam.config import PRESETS, load_config, resolve_config
from piezobeam.errors import ConfigError
from piezobeam.modal import DampingModel, mode_roots
from piezobeam.signals import NoiseWaveform
from piezobeam.simulate import CHUNK_ROWS, RK4, Coupling, simulate
from piezobeam.synthesis import radial_pole_targets


def write_config(tmp_path, data, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(data))
    return str(path)


# ---------------------------------------------------------------------------
# config loading
# ---------------------------------------------------------------------------

def test_minimal_config_gets_defaults(tmp_path):
    cfg = load_config(write_config(tmp_path, {"N": 3}))
    assert cfg.N == 3
    assert cfg.params.a1 == 0.01
    assert cfg.placement.x2 == 0.1
    assert cfg.damping.value == "structural"
    assert cfg.noise.waveform is NoiseWaveform.UNIFORM_HOLD
    assert cfg.sim.coupling is Coupling.TRUNCATED
    assert cfg.disturbance.driven_mode_count == 3
    assert cfg.F_bound == pytest.approx(11 * math.sqrt(3), rel=1e-9)
    assert cfg.eps_bound == pytest.approx(0.01)


def test_fig1_preset(tmp_path):
    cfg = load_config(write_config(tmp_path, {"preset": "fig1"}))
    assert cfg.N == 3
    assert cfg.params.a1 == 0.01
    assert (cfg.placement.x1, cfg.placement.x2) == (0.0, 0.1)
    assert cfg.placement.x0 == 0.095
    assert cfg.lambda_L == 34.0
    assert cfg.disturbance.f_max == 11.0
    assert cfg.label == "fig1"


def test_fig_presets_all_load_and_pass_check(tmp_path):
    from piezobeam.synthesis import check_placement
    for name in PRESETS:
        cfg = load_config(write_config(tmp_path, {"preset": name},
                                       f"{name}.yaml"))
        system = cfg.build_system()
        verdict = check_placement(system)
        assert verdict.observable, name
        if name != "fig6":   # the vanishing patch is flagged by design
            assert verdict.controllable, name


def test_fig2_pins_observer_rate(tmp_path):
    cfg = load_config(write_config(tmp_path, {"preset": "fig2"}))
    assert cfg.lambda_L == 64.0


def test_reversed_patch_names_offender(tmp_path):
    path = write_config(tmp_path, {"placement": {"x1": 0.3, "x2": 0.1}})
    with pytest.raises(ConfigError, match="patch"):
        load_config(path)


def test_unknown_key_rejected(tmp_path):
    with pytest.raises(ConfigError, match="placment"):
        load_config(write_config(tmp_path, {"placment": {}}))
    with pytest.raises(ConfigError, match="sim.dtt"):
        load_config(write_config(tmp_path, {"sim": {"dtt": 0.1}}))


def test_unknown_preset_rejected():
    with pytest.raises(ConfigError, match="nope"):
        resolve_config({"preset": "nope"})


def test_missing_file_is_config_error():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/path.yaml")


def test_physical_beam_route(tmp_path):
    cfg = load_config(write_config(tmp_path, {
        "beam": {"physical": {
            "length": 1.0, "half_height": 1.0, "width": 1.0, "density": 1.0,
            "elastic_modulus": 1.0, "inertia_moment": 1.0, "damping": 0.01,
            "piezo_constant": 2.0, "patch_height": 0.1,
        }},
    }))
    assert cfg.params.a1 == pytest.approx(0.01)
    assert cfg.params.a2 == pytest.approx(1.0)


def test_explicit_gains_route(tmp_path):
    cfg = load_config(write_config(tmp_path, {
        "N": 1,
        "gains": {"strategy": "explicit",
                  "K": [411.17, -17.94], "L": [1.0, 50.0]},
    }))
    system = cfg.build_system()
    gains = cfg.build_gains(system)
    np.testing.assert_allclose(gains.K, [411.17, -17.94])


def test_custom_disturbance_route(tmp_path):
    cfg = load_config(write_config(tmp_path, {
        "disturbance": {"kind": "custom",
                        "modes": [[[1.0, 9.87, 0.0], [0.5, 3.0, 0.1]]]},
    }))
    assert cfg.disturbance.driven_mode_count == 1
    assert cfg.disturbance.f_max == pytest.approx(1.5)


# ---------------------------------------------------------------------------
# CLI subcommands and exit codes
# ---------------------------------------------------------------------------

def fast_sim_overrides():
    return {
        "sim": {"t_final": 0.4, "dt": 5e-4, "residual_modes": 2},
        "gains": {"lambda_grid": [6.0, 10.0], "lambda_L": 34.0},
    }


def test_check_command_ok(tmp_path, capsys):
    path = write_config(tmp_path, {"preset": "fig1"})
    assert main(["check", "--config", path]) == 0
    out = capsys.readouterr().out
    assert "observable:   True" in out


def test_check_command_failure_names_mode(tmp_path, capsys):
    # the second puts the sensor's zero within a factor 1e-9 of mode 1's
    # slow root: the closed form and the block oracle split inside the
    # ill-conditioned band, which check reports as a warning
    for data, line in (
            ({"placement": {"x0": 0.5}}, "mode 2"),
            ({"N": 1, "beam": {"a1": 3.0}, "placement": {
                "x0": 0.3, "s1": 3.7698534358161635, "s2": 1.0}},
             "\nwarning:      observability of mode 1 is ill-conditioned "
             "(factor 1.000e-09); closed-form verdict used\n")):
        path = write_config(tmp_path, data)
        assert main(["check", "--config", path]) == 1
        assert line in capsys.readouterr().out


def test_bad_config_exit_code(tmp_path, capsys):
    path = write_config(tmp_path, {"placement": {"x1": 0.9, "x2": 0.1}})
    assert main(["check", "--config", path]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("data", [
    {"placement": {"x0": None}},
    {"sim": {"t_final": "abc"}},
    {"sim": {"z0": 5}},
    {"gains": {"lambda_grid": "abc"}},
    {"gains": {"lambda_grid": [1, "abc"]}},
    {"gains": {"F_bound": "abc"}},
    {"gains": {"strategy": "explicit", "K": ["a", 1, 2, 3, 4, 5],
               "L": [1, 2, 3, 4, 5, 6]}},
    {"disturbance": {"kind": "custom", "modes": 5}},
    {"disturbance": {"kind": "custom", "modes": [[1, 2]]}},
    {"disturbance": {"kind": "constant", "values": 3}},
    {"beam": {"a1": None}},
    {"noise": {"seed": None}},
    {"preset": [1]},
    {"output": {"dir": 5}},
], ids=repr)
def test_malformed_values_are_config_errors(tmp_path, capsys, data):
    path = write_config(tmp_path, data)
    assert main(["check", "--config", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert "Traceback" not in err


# keys whose range refuses a value that used to overflow or to be misread
OUT_OF_RANGE = [
    ({"noise": {"hold": 1e-300}, "sim": {"t_final": 0.1}},
     "noise.hold: 1e-300 is outside [1e-12, inf]"),
    ({"gains": {"F_bound": -1}}, "gains.F_bound: -1 is outside [0, 1e+100]"),
    ({"gains": {"eps_bound": -1}},
     "gains.eps_bound: -1 is outside [0, 1e+100]"),
    ({"gains": {"F_bound": 1e308, "eps_bound": 1e308}},
     "gains.F_bound: 1e+308 is outside [0, 1e+100]"),
]
# finite states whose norms overflow (a norm squares them)
OVERFLOWS = [
    ({"sim": {"t_final": 0.1, "z0": [1e300] * 6}},
     "norm_e, norm_z became non-finite at step 0 (t = 0)"),
    ({"sim": {"t_final": 0.1, "residual0": [1e300] * 10}},
     "norm_residual became non-finite at step 0 (t = 0)"),
    ({"noise": {"bound": 1e300}, "sim": {"t_final": 0.1}},
     "norm_e, norm_z became non-finite at step 1 (t = 0.00025)"),
]

# refusals that no other test reaches, each exit 2 with its message:
# (command, id, data, message)
REFUSED = [
    ("tune", "no-gains", {"gains": {"strategy": "none"}},
     "gains.strategy is 'none'; nothing to tune"),
    ("bounds", "no-gains", {"gains": {"strategy": "none"}},
     "bounds require gains (strategy tune or explicit)"),
    ("check", "root-list", ["preset", "fig1"],
     "config root must be a mapping"),
    ("check", "sim-not-mapping", {"sim": 5},
     "section 'sim' must be a mapping"),
    ("check", "custom-without-modes", {"disturbance": {"kind": "custom"}},
     "disturbance: modes required for kind 'custom'"),
    ("check", "custom-inf-term",
     {"disturbance": {"kind": "custom", "modes": [[[1.0, math.inf, 0.0]]]}},
     "disturbance: harmonic terms must be finite numbers"),
    ("check", "explicit-without-K-L", {"gains": {"strategy": "explicit"}},
     "gains.K and gains.L required for strategy 'explicit'"),
    ("check", "explicit-short-K-L",
     {"gains": {"strategy": "explicit", "K": [1, 2, 3], "L": [1, 2, 3]}},
     "gains.K and gains.L must have length 2N = 6"),
    ("sweep", "empty-values", {"sweep": {"parameter": "x0", "values": []}},
     "sweep.values must be a nonempty list"),
    ("simulate", "negative-t_final", {"sim": {"t_final": -1}},
     "sim: t_final must be >= 0, got -1.0"),
    ("simulate", "zero-dt", {"sim": {"dt": 0}},
     "sim: dt must be > 0, got 0.0"),
    ("simulate", "negative-residual_modes", {"sim": {"residual_modes": -1}},
     "sim: residual_modes must be >= 0, got -1"),
    ("simulate", "z0-shape", {"sim": {"z0": [1, 2]}},
     "z0 must have shape (2N,) = (6,)"),
    ("simulate", "z_hat0-shape", {"sim": {"z_hat0": [1, 2]}},
     "z_hat0 must have shape (2N,) = (6,)"),
    ("simulate", "residual0-shape", {"sim": {"residual0": [1, 2]}},
     "residual0 must have shape (2R,) = (10,)"),
]


@pytest.mark.parametrize("command, data, flags, code, line", [
    ("simulate", {"sim": {"t_final": math.nan}}, [], 2,
     "config error: sim.t_final: nan is not a finite number"),
    ("simulate", {"sim": {"t_final": math.inf}}, [], 2,
     "config error: sim.t_final: inf is not a finite number"),
    # unquoted nan is text in YAML, which float() reads as NaN
    ("simulate", {"sim": {"t_final": "nan"}}, [], 2,
     "config error: sim.t_final: 'nan' is not a finite number"),
    ("simulate", {"sim": {"t_final": 10**400}}, [], 2,
     "config error: sim.t_final: 1000"),
    ("simulate", {}, ["--seed", "-1"], 2,
     "config error: seed must be >= 0, got -1"),
    ("simulate", {"sim": {"seed": -1}}, [], 2,
     "config error: sim: seed must be >= 0, got -1"),
    ("tune", {"gains": {"lambda_L": 0}}, [], 3,
     "infeasible design: lambda_L must be > 0, got 0.0"),
    ("bounds", {"beam": {"a1": 0}}, [], 2,
     "config error: beam.a1 must be > 0"),
    *[(command, data, [], 2, f"config error: {line}") for command in
      ("tune", "simulate", "bounds") for data, line in OUT_OF_RANGE],
    *[("simulate", data, [], 4, f"simulation diverged: {line}")
      for data, line in OVERFLOWS],
    *[(command, data, [], 2, f"config error: {line}")
      for command, _, data, line in REFUSED],
], ids=["nan-t_final", "inf-t_final", "nan-text-t_final", "huge-int-t_final",
        "seed-flag", "sim-seed", "lambda_L-zero", "bounds-a1-zero",
        *[f"{command}-{name}" for command in ("tune", "simulate", "bounds")
          for name in ("hold", "F_bound", "eps_bound", "huge-bounds")],
        "z0-overflow", "residual0-overflow", "noise-overflow",
        *[f"{command}-{name}" for command, name, _, _ in REFUSED]])
def test_bad_inputs_exit_with_their_documented_code(tmp_path, capsys, command,
                                                    data, flags, code, line):
    # each of these but REFUSED ended in a traceback (exit 1, "placement
    # check failed"), or, the ranges and overflows, in exit 0: with negative
    # bounds in the report, or with a RuntimeWarning (an error here, by
    # pyproject.toml).  A list is written as the config's root, without the
    # preset.
    path = write_config(tmp_path, data if isinstance(data, list)
                        else {"preset": "fig1", **data})
    out = tmp_path / "out"
    assert main([command, "--config", path, "--out", str(out), *flags]) == code
    err = capsys.readouterr().err
    assert err.startswith(line)
    assert "Traceback" not in err
    assert not out.exists()     # refused before any artifact is written


@pytest.mark.parametrize("command, bound, code", [
    ("tune", 1e308, 2), ("simulate", 1e308, 2), ("bounds", 1e308, 2),
    ("tune", 1e300, 0), ("simulate", 1e300, 4), ("bounds", 1e300, 2),
])
def test_eps_bound_overflow_names_the_noise_bound(tmp_path, capsys, command,
                                                   bound, code):
    # gains.eps_bound left null takes noise.bound, which has no range: 1e308
    # overflowed ||L|| eps_bound in tune with a RuntimeWarning, and 1e300
    # made bounds write z_steady_bound = inf with exit 0.  1e300 is still a
    # noise level that tune accepts and simulate diverges on.
    path = write_config(tmp_path, {"preset": "fig1", "noise": {"bound": bound},
                                   "sim": {"t_final": 0.1}})
    out = tmp_path / "out"
    assert main([command, "--config", path, "--out", str(out)]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code == 2:
        assert err.startswith(f"config error: gains.eps_bound (defaulted to "
                              f"noise.bound = {bound:g}): the bounds overflow")
        assert not out.exists()


EDGE_CONFIGS = {
    **{f"range-{i}": data for i, (data, _) in enumerate(OUT_OF_RANGE)},
    **{f"overflow-{i}": data for i, (data, _) in enumerate(OVERFLOWS)},
    "t_final-0": {"sim": {"t_final": 0.0}},
    "t_final-1e-9": {"sim": {"t_final": 1e-9}},
    "N-60-dt-unset": {"N": 60, "placement": {"x2": 0.1037, "x0": 0.0951},
                      "sim": {"dt": None}},
    "residual-200": {"sim": {"residual_modes": 200}},
    "eps-default-1e308": {"noise": {"bound": 1e308}},
}


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
@pytest.mark.parametrize("data", EDGE_CONFIGS.values(), ids=EDGE_CONFIGS)
def test_edge_configs_exit_with_a_code_on_every_command(tmp_path, capsys,
                                                       command, data):
    # a documented exit code and no traceback; a stray NumPy warning is an
    # error under pyproject.toml's filter.  The sweep section gives sweep a
    # point to run.
    sweep = {"sweep": {"parameter": "x0", "values": [0.6]}}
    path = write_config(tmp_path, {"preset": "fig1", **data, **sweep})
    code = main([command, "--config", path, "--out", str(tmp_path / "out")])
    assert code in range(5)
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["directory", "utf-16"])
def test_unreadable_config_exits_2_naming_it(tmp_path, capsys, kind):
    path = tmp_path / "cfg.yaml"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"\xff\xfe" + "preset: fig1\n".encode("utf-16-le"))
    assert main(["check", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and str(path) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["tune", "simulate"])
@pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
def test_out_path_blocked_by_a_file_exits_2(tmp_path, capsys, command, under):
    path = write_config(tmp_path, {"preset": "fig1", "sim": {"t_final": 0.1}})
    blocker = tmp_path / "taken"
    blocker.write_text("not a directory\n")
    out = blocker / "sub" if under else blocker
    assert main([command, "--config", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot create output directory "
                          f"{out}: ")
    assert "Traceback" not in err
    assert blocker.read_text() == "not a directory\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.yaml", "taken"]


def test_out_file_blocked_by_a_directory_exits_2(tmp_path, capsys):
    path = write_config(tmp_path, {"preset": "fig1", "sim": {"t_final": 0.1}})
    out = tmp_path / "out"
    blocker = out / "fig1_timeseries.csv"
    blocker.mkdir(parents=True)
    assert main(["simulate", "--config", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot open output file {blocker}: ")
    assert "Traceback" not in err
    assert [p.name for p in out.iterdir()] == ["fig1_timeseries.csv"]
    assert not any(blocker.iterdir())


@pytest.mark.parametrize("label", ["../escaped", "a/b"])
def test_label_with_a_path_exits_2_and_writes_nothing(tmp_path, capsys,
                                                      label):
    path = write_config(tmp_path, {"preset": "fig1", "label": label,
                                   "sim": {"t_final": 0.1}})
    out = tmp_path / "inner"
    assert main(["simulate", "--config", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: label: {label!r} ")
    assert "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.yaml"]


def test_label_must_be_a_plain_file_name():
    for label in [".", "..", "/abs", "a/", "x/../y"]:
        with pytest.raises(ConfigError, match="^label: "):
            resolve_config({"label": label})
    for name in PRESETS:
        assert resolve_config({"preset": name}).label == name
    for label in ["wide", "p000", "fig1.v2", "..x"]:
        assert resolve_config({"label": label}).label == label


def test_infeasible_placement_exit_code(tmp_path, capsys):
    # full-span patch kills mode 2: tuning cannot place poles
    path = write_config(tmp_path, {
        "N": 2, "placement": {"x1": 0.0, "x2": 1.0, "x0": 0.3},
        **fast_sim_overrides(),
    })
    assert main(["tune", "--config", path, "--out", str(tmp_path)]) == 3
    assert "infeasible" in capsys.readouterr().err


@pytest.mark.parametrize("N", [40, 50, 60])
def test_pole_placement_reaches_N_60(tmp_path, capsys, N):
    # two separate products over 2N factors overflowed from N = 40 (exit 3,
    # "non-finite gain"); paired ratios place both spectra to 1e-9
    data = {"N": N, "placement": {"x2": 0.1037, "x0": 0.0951}}
    path = write_config(tmp_path, data)
    assert main(["tune", "--config", path, "--out", str(tmp_path)]) == 0
    rows = dict(line.split(",") for line in
                (tmp_path / "run_gains.csv").read_text().splitlines()[1:])
    K = np.array([float(rows[f"K_{i}"]) for i in range(2 * N)])
    L = np.array([float(rows[f"L_{i}"]) for i in range(2 * N)])
    system = resolve_config(data).build_system()
    for M, lam in ((system.A - np.outer(system.B, K), rows["lambda_K"]),
                   (system.A - np.outer(L, system.C), rows["lambda_L"])):
        want = np.sort_complex(radial_pole_targets(system.A, float(lam)))
        got = np.sort_complex(np.linalg.eigvals(M))
        assert np.max(np.abs(got - want) / np.abs(want)) < 1e-9


@pytest.mark.parametrize("command, data, reason", [
    # mode 20 of the fig1 patch [0, 0.1]: cos(2 pi) = cos(0)
    ("tune", {"preset": "fig1", "N": 20, "beam": {"a1": 5}},
     "; mode 20: patch gain cos(20 pi x2) - cos(20 pi x1) = 0\n"),
    # mode 4 of the patch [0.2, 0.3]: cos(0.8 pi) = cos(1.2 pi)
    ("sweep", {"preset": "fig7",
               "sweep": {"parameter": "patch", "values": [[0.2, 0.3]]}},
     "; mode 4: patch gain cos(4 pi x2) - cos(4 pi x1) = 0\n"),
    # a sensor at mode 2's node: the observer side refuses
    ("tune", {"preset": "fig1", "placement": {"x0": 0.5}},
     "; mode 2: sensor at node, sin(2 pi x0) = 0\n"),
])
def test_uncontrollable_placement_names_the_mode(tmp_path, capsys, command,
                                                 data, reason):
    # the refusal printed "[np.complex128(-0.789...+157.9...j), ...]", and
    # an unobservable mode as "uncontrollable eigenvalue(s)"
    path = write_config(tmp_path, data)
    assert main([command, "--config", path, "--out", str(tmp_path)]) == 3
    out, err = capsys.readouterr()
    mode = reason.split()[2].rstrip(":")
    side = "unobservable" if "sensor" in reason else "uncontrollable"
    assert err == f"infeasible design: {side} mode(s) {mode}{reason}"
    assert "np." not in out + err


def test_tune_refuses_gains_that_miss_their_targets(tmp_path, capsys):
    # the overdamped modes' eigenbasis is ill-conditioned: tune exited 0
    # with lambda_L = 33.997 for a pinned 34 on fig1 with a1 = 1000, which
    # the sigma^2 targets now place; at N = 10 A - BK still misses by 1.6e-5
    path = write_config(tmp_path, {"preset": "fig1", "N": 10,
                                   "beam": {"a1": 10}})
    assert main(["tune", "--config", path, "--out", str(tmp_path)]) == 3
    out, err = capsys.readouterr()
    assert re.match(r"infeasible design: A - (BK|LC) at lambda = \d+ misses "
                    r"its target poles by \S+ relative", err)
    assert not (tmp_path / "fig1_gains.csv").exists()


@pytest.mark.parametrize("data", [
    *(pytest.param({"preset": "fig1", "beam": {"a1": a1}}, id=str(a1))
      for a1 in (2, 3, 10, 100, 1000)),
    # critically damped: each mode's two roots coincide
    pytest.param({"preset": "fig7", "beam": {"a1": 2}}, id="fig7-a1-2"),
    pytest.param({"preset": "fig1", "N": 5, "beam": {"a1": 2}},
                 id="fig1-N5-a1-2"),
])
def test_tune_places_overdamped_fig1(tmp_path, capsys, data):
    # targets copied from eigvals(A) made each overdamped mode a double
    # pole, which no placement meets to 1e-6: all but a1 = 3 exited 3; the
    # critically damped beams missed by 1.87e-6 through a defective eig(A)
    path = write_config(tmp_path, data)
    assert main(["tune", "--config", path, "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().err == ""
    assert (tmp_path / f"{data['preset']}_gains.csv").exists()


def test_unstable_tuned_loop_names_its_matrix(tmp_path, capsys):
    # check passes this Kelvin-Voigt beam; tune's refusal named no matrix.
    # The slow roots of modes 1 and 2 agree to about 1e-8, so one input
    # cannot place them: every rate's gain is garbage, and the closed loop
    # at the rate the bound picks is refused.
    path = write_config(tmp_path, {"preset": "fig1", "damping": "kelvin_voigt",
                                   "beam": {"a1": 1000}})
    assert main(["tune", "--config", path, "--out", str(tmp_path)]) == 3
    assert re.match(r"infeasible design: A - BK at lambda = 10 has eigenvalue "
                    r"with Re = \S+ >= 0", capsys.readouterr().err)


@pytest.mark.parametrize("data, code, line", [
    ({"damping": "kelvin_voigt", "beam": {"a1": 1000}}, 0,
     "observable:   True"),
    ({"N": 60, "placement": {"x2": 0.1037, "x0": 0.0951}}, 0,
     "controllable: True"),
    ({"N": 60, "damping": "kelvin_voigt", "beam": {"a1": 10}}, 1,
     "offending modes: [20, 40, 60]"),
], ids=["kv-a1-1000", "N60-patch", "N60-kv-a1-10"])
def test_check_spans_many_decades(tmp_path, capsys, data, code, line):
    # the PBH pencils' rank tolerance grew with a1 sigma^4 and N and raised
    # InternalConsistencyError (exit 3) on each of these
    path = write_config(tmp_path, {"preset": "fig1", **data})
    assert main(["check", "--config", path]) == code
    out, err = capsys.readouterr()
    assert line in out.splitlines()
    assert err == ""


def test_sensor_zero_on_a_root_names_the_mode(tmp_path, capsys):
    # y = s1 w + s2 w' has its zero at -s1/s2 = -1, mode 1's slow root at
    # a1 = (1 + pi^4) / pi^2: the closed form missed it and check raised
    # InternalConsistencyError (exit 3)
    path = write_config(tmp_path, {
        "N": 1, "beam": {"a1": (1 + math.pi**4) / math.pi**2},
        "placement": {"x1": 0.0, "x2": 0.1, "x0": 0.3, "s1": 1.0, "s2": 1.0},
    })
    assert main(["check", "--config", path]) == 1
    out, err = capsys.readouterr()
    assert "observable:   False" in out.splitlines()
    assert "offending modes: [1]" in out.splitlines()
    assert "mode 1: sensor zero" in out
    assert err == ""


def test_subnormal_sensor_weights_are_config_errors(tmp_path, capsys):
    # s * psi_n underflowed to a zero sensor row, which check reported as
    # an internal inconsistency (exit 3)
    path = write_config(tmp_path, {"placement": {"s1": 5e-324,
                                                 "s2": 5e-324}})
    assert main(["check", "--config", path]) == 2
    assert capsys.readouterr().err.startswith(
        "config error: placement: sensor weights (s1, s2) must not both be "
        "zero or subnormal")


@pytest.mark.parametrize("t_final, steps", [(1.0e308, "inf"),
                                            (190.65, "7.626e+05")])
def test_step_count_is_refused_before_allocation(tmp_path, capsys, t_final,
                                                 steps):
    # fig1 has 22 states; at dt = 2.5e-4, 190.65 is 762600 steps, whose
    # (762600 + 1) x 22 state values are just over 2^24.  1e308 used to
    # end in an OverflowError traceback at int(round(t_final / dt)).
    path = write_config(tmp_path, {"preset": "fig1",
                                   "sim": {"t_final": t_final}})
    assert main(["simulate", "--config", path, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: t_final = {t_final:g} at "
                          f"dt = 2.500e-04 takes {steps} steps")
    assert err.endswith("; stepping 22 states through them exceeds the "
                        "limit of 16777216 state values\n")
    assert not (tmp_path / "fig1_timeseries.csv").exists()


def test_residual_mode_runs_have_the_same_step_limit(tmp_path, capsys):
    # at a1 = 1e-300 each residual mode of bounds would settle over 1.5e302
    # steps: a run without end, now refused.  At a1 = 1000 the damping sets
    # dt = 6.3e-7 against a settle horizon of 76; the refusal named a
    # "t_final = 77.5824" and a history that bounds neither reads nor keeps
    for a1, steps in ((1e-300, "1.528e+302"), (1000, "1.225e+08")):
        path = write_config(tmp_path, {"preset": "fig1", "beam": {"a1": a1}})
        assert main(["bounds", "--config", path, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: residual mode 4 would take "
                              f"{steps} RK4 steps of dt = ")
        assert "(12 decay times of 1 / " in err
        assert ("and stepping its 2 states that far exceeds the limit of "
                "16777216 state values; ") in err
        assert err.endswith(f"beam.a1 = {a1:g} and damping: structural set "
                            "the decay rate and dt\n")
        assert "t_final" not in err and "history" not in err
        assert not list(tmp_path.glob("*.csv"))


def test_simulate_row_count_and_header(tmp_path, capsys):
    path = write_config(tmp_path, {"preset": "fig1", **fast_sim_overrides()})
    assert main(["simulate", "--config", path, "--out", str(tmp_path)]) == 0
    csv = (tmp_path / "fig1_timeseries.csv").read_text().splitlines()
    assert csv[0] == "t,norm_e,norm_z,V,y,norm_residual"
    assert len(csv) == 1 + int(round(0.4 / 5e-4)) + 1   # header + T/dt + 1


def test_open_loop_metrics_name_the_open_loop_decay_rate(tmp_path, capsys):
    # no controller, so no lambda_K: the window waits 10 / decay_rate(A).
    # Undamped, A does not decay: that run exited 3 after writing its CSV,
    # as an infeasible design, with "matrix has eigenvalue with Re = 0 >= 0".
    # sweep needs the metrics, so it refuses what simulate skips.
    for a1, skipped in (
            (0.01, "horizon 1 too short: steady window begins before 10 / "
                   "the open-loop decay rate = 203"),
            (0.0, "the open-loop plant A has eigenvalue with Re = 0 >= 0")):
        path = write_config(tmp_path, {"preset": "fig1", "beam": {"a1": a1},
                                       "gains": {"strategy": "none"},
                                       "sim": {"t_final": 1},
                                       "sweep": {"parameter": "x0",
                                                 "values": [0.6]}})
        assert main(["simulate", "--config", path, "--out",
                     str(tmp_path)]) == 0
        out, err = capsys.readouterr()
        assert out.endswith(f"\nmetrics skipped: {skipped}\n") and not err
        assert "lambda_K" not in out
        assert main(["sweep", "--config", path, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"config error: {skipped}\n"


def test_tune_command_writes_gains(tmp_path, capsys):
    path = write_config(tmp_path, {"preset": "fig1", **fast_sim_overrides()})
    assert main(["tune", "--config", path, "--out", str(tmp_path)]) == 0
    rows = dict(
        line.split(",") for line in
        (tmp_path / "fig1_gains.csv").read_text().splitlines()[1:]
    )
    assert float(rows["lambda_L"]) == pytest.approx(34.0, abs=1e-6)
    assert float(rows["lambda_K"]) < 34.0
    assert "K_5" in rows and "L_5" in rows


def test_bounds_command(tmp_path, capsys):
    path = write_config(tmp_path, {"preset": "fig1", **fast_sim_overrides()})
    assert main(["bounds", "--config", path, "--out", str(tmp_path)]) == 0
    bounds = (tmp_path / "fig1_bounds.csv").read_text().splitlines()
    names = {line.split(",")[0] for line in bounds[1:]}
    assert {"lambda_L", "e_steady_bound", "z_steady_bound",
            "kappa_L", "kappa_K"} <= names
    residual = (tmp_path / "fig1_residual.csv").read_text().splitlines()
    assert len(residual) >= 3


@pytest.mark.parametrize("R", [0, 1, 2])
def test_bounds_fits_a_decay_exponent_over_two_modes_or_more(tmp_path, capsys,
                                                             R):
    # bounds runs max(R, 1) residual modes; a slope through one point
    # printed "simulated decay exponent: 0.699882574892" with a RankWarning
    path = write_config(tmp_path, {"preset": "fig1",
                                   "sim": {"residual_modes": R}})
    assert main(["bounds", "--config", path, "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert ("simulated decay exponent" in out) == (R >= 2)
    rows = (tmp_path / "fig1_residual.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in rows[1:]] == \
        [str(k) for k in range(4, 4 + max(R, 1))]


# simulated_sup of fig7's residual modes 6..45 as a step-by-step RK4 scan
# of each mode wrote them: about 16.9k steps a mode
FIG7_RESIDUAL_SUPS = [
    3.09428327667, 2.27335097541, 1.74053433929, 1.3752370083,
    1.11394197648, 0.920613203579, 0.773570816831, 0.659137264009,
    0.568337742925, 0.495085322713, 0.435133584408, 0.385447050543,
    0.343809251869, 0.308571184501, 0.27848549401, 0.252594552389,
    0.230153300833, 0.210575042728, 0.193392704171, 0.178230716164,
    0.16478431598, 0.152804111937, 0.142084435717, 0.132454456126,
    0.123771330669, 0.115914877837, 0.108783396095, 0.102290355924,
    0.0963617626311, 0.0909340388584, 0.0859523129641, 0.0813690267359,
    0.0771427961229, 0.0732374737682, 0.0696213735009, 0.0662666255809,
    0.063148638096, 0.060245644998, 0.0575383252073, 0.055009480297,
]


def test_bounds_solves_residual_modes_without_stepping(tmp_path, capsys,
                                                       monkeypatch):
    # one closed-form residual-mode call for all 40 modes, no RK4 scan, and
    # the sups of the scan to rounding
    calls = {"run": 0, "mode": 0}
    run, mode = RK4.run, analysis.simulate_residual_mode

    def counting_run(self, *args):
        calls["run"] += 1
        return run(self, *args)

    def counting_mode(*args, **kwargs):
        calls["mode"] += 1
        return mode(*args, **kwargs)

    monkeypatch.setattr(RK4, "run", counting_run)
    monkeypatch.setattr(analysis, "simulate_residual_mode", counting_mode)
    path = write_config(tmp_path, {"preset": "fig7",
                                   "sim": {"residual_modes": 40}})
    assert main(["bounds", "--config", path, "--out", str(tmp_path)]) == 0
    assert calls == {"run": 0, "mode": 1}
    rows = (tmp_path / "fig7_residual.csv").read_text().splitlines()[1:]
    sups = [float(row.split(",")[2]) for row in rows]
    np.testing.assert_allclose(sups, FIG7_RESIDUAL_SUPS, rtol=1e-9, atol=0)


def test_bounds_refuses_a_forcing_whose_residual_sups_underflow(tmp_path,
                                                               capsys):
    # every residual sup underflowed to 0, and the fit printed NumPy's
    # divide-by-zero warning and "simulated decay exponent: nan" at exit 0
    path = write_config(tmp_path, {"preset": "fig7",
                                   "disturbance": {"bound": 1e-320},
                                   "sim": {"residual_modes": 4}})
    assert main(["bounds", "--config", path, "--out", str(tmp_path)]) == 2
    out, err = capsys.readouterr()
    assert err == (f"config error: disturbance.bound = {1e-320:g} is too "
                   "small: the simulated sup of residual mode 6 is 0\n")
    assert "nan" not in out
    assert not list(tmp_path.glob("*.csv"))


def test_bounds_decay_rate_columns_are_the_mode_roots(tmp_path, capsys):
    path = write_config(tmp_path, {"preset": "fig7",
                                   "sim": {"residual_modes": 40}})
    assert main(["bounds", "--config", path, "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "fig7_residual.csv").read_text().splitlines()
    assert lines[0].endswith(",decay_rate_structural,decay_rate_kelvin_voigt")
    params = resolve_config({"preset": "fig7"}).params
    modes = np.arange(6, 46)
    want = zip(*(mode_roots(params, modes, model)[0].real for model in
                 (DampingModel.STRUCTURAL, DampingModel.KELVIN_VOIGT)))
    assert [line.split(",")[3:] for line in lines[1:]] == \
        [[_fmt(s), _fmt(kv)] for s, kv in want]


def test_sweep_command(tmp_path, capsys):
    path = write_config(tmp_path, {
        "preset": "fig1",
        "gains": {"lambda_grid": [6.0, 10.0], "lambda_L": 34.0},
        "sim": {"t_final": 2.5, "dt": 5e-4, "residual_modes": 2},
        "sweep": {"parameter": "x0", "values": [0.095, 0.6, 0.98]},
    })
    assert main(["sweep", "--config", path, "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "fig1_sweep.csv").read_text().splitlines()
    assert len(rows) == 4
    assert rows[0].startswith("x0,x1,x2,lambda_L,lambda_K")
    assert [line.split(",")[0] for line in rows[1:]] == ["0.095", "0.6", "0.98"]


def test_sweep_requires_section(tmp_path, capsys):
    path = write_config(tmp_path, {"preset": "fig1", **fast_sim_overrides()})
    assert main(["sweep", "--config", path, "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("parameter, values", [
    ("patch", [0.3]),
    ("patch", [[0.0, 0.1], [0.2]]),
    ("patch", [["a", 0.1]]),
    ("patch", [[0.3, 0.1]]),
    ("x0", ["abc"]),
    ("x0", [[0.5]]),
    ("x0", [True]),
    ("x0", [1.5]),
    ("x0", 0.3),
])
def test_malformed_sweep_values_are_config_errors(tmp_path, capsys,
                                                  parameter, values):
    path = write_config(tmp_path, {
        "preset": "fig1", **fast_sim_overrides(),
        "sweep": {"parameter": parameter, "values": values},
    })
    assert main(["sweep", "--config", path, "--out", str(tmp_path)]) == 2
    assert "sweep.values" in capsys.readouterr().err
    assert not (tmp_path / "fig1_sweep.csv").exists()


def test_patch_sweep_runs(tmp_path, capsys):
    path = write_config(tmp_path, {
        "preset": "fig1",
        "gains": {"lambda_grid": [6.0, 10.0], "lambda_L": 34.0},
        "sim": {"t_final": 2.5, "dt": 5e-4, "residual_modes": 0},
        "sweep": {"parameter": "patch", "values": [[0.0, 0.1], [0, 0.2]]},
    })
    assert main(["sweep", "--config", path, "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "fig1_sweep.csv").read_text().splitlines()
    assert [line.split(",")[1:3] for line in rows[1:]] == \
        [["0", "0.1"], ["0", "0.2"]]


def test_full_coupling_fig1_refused_with_the_coupled_cap(tmp_path, capsys):
    # control spillover on 5 residual modes makes the fig1 loop unstable;
    # its coupled spectrum caps dt below the preset's 2.5e-4
    path = write_config(tmp_path, {"preset": "fig1",
                                   "sim": {"coupling": "full"}})
    assert main(["simulate", "--config", path, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    cap = float(re.search(r"stability cap (\S+) ", err).group(1))
    max_re = float(re.search(r"max Re eig\(M\) = ([^)]+)\)", err).group(1))
    assert cap == pytest.approx(1.01e-4, rel=5e-3)
    assert max_re == pytest.approx(2.37, rel=5e-3)
    assert not (tmp_path / "fig1_timeseries.csv").exists()


def test_unstable_loop_is_refused_when_dt_is_unset(tmp_path, capsys):
    # with dt unset the same loop ran at half its cap and exited 0 with
    # ||e|| near 2e13
    path = write_config(tmp_path, {"preset": "fig1",
                                   "sim": {"coupling": "full", "dt": None}})
    assert main(["simulate", "--config", path, "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("infeasible design: the coupled operator M is "
                          "not stable")
    max_re = float(re.search(r"max Re eig\(M\) = (\S+) >= 0\)", err).group(1))
    assert max_re == pytest.approx(2.37, rel=5e-3)
    assert not (tmp_path / "fig1_timeseries.csv").exists()


def test_byte_identical_reruns(tmp_path, capsys):
    path = write_config(tmp_path, {"preset": "fig1", **fast_sim_overrides()})
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", path, "--out", str(a)]) == 0
    assert main(["simulate", "--config", path, "--out", str(b)]) == 0
    assert (a / "fig1_timeseries.csv").read_bytes() == \
        (b / "fig1_timeseries.csv").read_bytes()


def test_seed_override_changes_output(tmp_path, capsys):
    path = write_config(tmp_path, {"preset": "fig1", **fast_sim_overrides()})
    a, b = tmp_path / "s1", tmp_path / "s2"
    assert main(["simulate", "--config", path, "--out", str(a),
                 "--seed", "1"]) == 0
    assert main(["simulate", "--config", path, "--out", str(b),
                 "--seed", "2"]) == 0
    assert (a / "fig1_timeseries.csv").read_bytes() != \
        (b / "fig1_timeseries.csv").read_bytes()


def test_output_dir_env_var(tmp_path, capsys, monkeypatch):
    target = tmp_path / "envdir"
    monkeypatch.setenv("PIEZOBEAM_OUT", str(target))
    path = write_config(tmp_path, {"preset": "fig1", **fast_sim_overrides()})
    assert main(["simulate", "--config", path]) == 0
    assert (target / "fig1_timeseries.csv").exists()


# ---------------------------------------------------------------------------
# CSV writer
# ---------------------------------------------------------------------------

def reference_csv(header, rows):
    """Bytes of the row-by-row writer: numbers through _fmt, strings as is."""
    lines = [",".join(header)]
    lines += [",".join(v if isinstance(v, str) else _fmt(v) for v in row)
              for row in rows]
    return ("\n".join(lines) + "\n").encode("utf-8")


def test_csv_bytes_match_reference_writer(tmp_path):
    rng = np.random.default_rng(5)
    specials = [0.0, -0.0, 5e-324, -2.2250738585072e-309, 1e300, -1e300,
                1e-300, -1e-300, 1.0, 0.1, 123456789012345.0, float("inf"),
                float("-inf"), float("nan")]
    numbers = [tuple(v) for v in rng.standard_normal((2 * CSV_CHUNK_ROWS, 3))
               * 10.0 ** rng.integers(-20, 20, (2 * CSV_CHUNK_ROWS, 3))]
    numbers[5:5 + len(specials) // 2] = list(zip(specials[::2], specials[1::2],
                                               specials[::-2]))
    tables = {
        "numbers": (["a", "b", "c"], numbers + [(1.0, 2.0, 3.0)]),
        # the residual table: np.int64 mode numbers, "" for a missing sup
        "residual": (["mode", "bound", "sup"],
                     [(np.int64(k), 1.0 / k**2, "" if k % 3 else 0.5 / k)
                      for k in range(4, 44)]),
        # the gains table: name, value
        "gains": (["name", "value"],
                  [("lambda_L", 34.0), ("K_0", np.float64(-0.0)),
                   ("L_1", 5e-324), ("big", np.int64(2**62))]),
        "empty": (["x"], []),
    }
    for name, (header, rows) in tables.items():
        counted = CountingRows(rows)
        path = write_csv(tmp_path / f"{name}.csv", header, counted)
        assert counted.n == len(rows), name   # every row, iterated once
        assert path.read_bytes() == reference_csv(header, rows), name

    # the numbers table as a 2-D float array, written in array slices, and
    # the same array behind the counting iterable, as the benchmark tracer
    # hands it over, which is read into one array and takes the same path
    header, rows = tables["numbers"]
    assert len(rows) == 2 * CSV_CHUNK_ROWS + 1
    array = np.array(rows)
    expect = reference_csv(header, rows)
    assert write_csv(tmp_path / "array.csv", header,
                     array).read_bytes() == expect
    counted = CountingRows(array)
    assert write_csv(tmp_path / "counted.csv", header,
                     counted).read_bytes() == expect
    assert counted.n == len(rows)


class CountingRows:
    """Iterable that counts the rows consumed from it, like the benchmark
    tracer's ``_CountingRows``."""

    def __init__(self, rows):
        self.rows = rows
        self.n = 0

    def __iter__(self):
        for row in self.rows:
            self.n += 1
            yield row


def test_all_number_tables_take_the_digit_tables(tmp_path, monkeypatch):
    # the tracer's counting iterable over the timeseries array, the sweep
    # table and a residual table with every sup went through a %-format row
    # path; the gains table and the "" sup of a residual table still do
    calls = []
    write_array = cli._write_array
    monkeypatch.setattr(cli, "_write_array",
                        lambda fh, rows: calls.append(rows.shape)
                        or write_array(fh, rows))
    array = np.random.default_rng(2).standard_normal((2 * CSV_CHUNK_ROWS, 6))
    tables = {
        "counted": CountingRows(array),
        "sweep": [(0.095, 0, 0.1, 34.0, 6.0, 31.04)] * 3,
        "residual": [(np.int64(k), 1.0 / k, np.float64(0.5 / k), -1.0, -2.0)
                     for k in range(4, 44)],
        "text": [(k, 1.0 / k, "", -1.0, -2.0) for k in range(4, 44)],
        "gains": [("lambda_L", 34.0), ("K_0", -0.0)],
    }
    for name, rows in tables.items():
        path = write_csv(tmp_path / f"{name}.csv", ["h"], rows)
        assert path.read_bytes() == reference_csv(["h"], list(rows)), name
    assert calls == [(2 * CSV_CHUNK_ROWS, 6), (3, 6), (40, 5)]


def test_simulate_memory_is_its_history_and_tables(tmp_path, monkeypatch):
    # fig1 to t = 12: n = 48,000 steps of 12 live states, 10 undriven
    # residual states, one comb channel and the noise, in three segments.
    # The peak, reached in the first segment, is the (n + 1) x 6 timeseries
    # table plus CHUNK_ROWS rows of 24 words: the segment's 12 states, its
    # two channels on two half steps and 8 words of half-step noise
    # synthesis temporaries (23.04 are seen).  Nothing else grows with n: a
    # kept state history, or one more full-length column (2.9 words a
    # segment row here), breaks it.
    sim = importlib.import_module("piezobeam.simulate")
    path = write_config(tmp_path, {"preset": "fig1", "sim": {"t_final": 12.0}})
    argv = ["simulate", "--config", path, "--out", str(tmp_path)]
    assert main(argv) == 0               # warm-up: the CSV's digit tables
    run, segments = sim.RK4.run, []

    def counted_run(self, X, c):
        segments.append(len(X) - 1)
        return run(self, X, c)

    monkeypatch.setattr(sim.RK4, "run", counted_run)
    gc.collect()
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows = 48001
    assert segments == [CHUNK_ROWS, CHUNK_ROWS, rows - 1 - 2 * CHUNK_ROWS]
    csv = tmp_path / "fig1_timeseries.csv"
    assert csv.read_bytes().count(b"\n") == rows + 1     # and the header
    table, segment = 8 * rows * 6, 8 * CHUNK_ROWS * (12 + 4 + 8)
    assert peak <= table + segment, (peak - table) / (8 * CHUNK_ROWS)


def test_small_table_allocates_only_its_own_records(tmp_path):
    # a 3 x 5 table took a full CSV_CHUNK_ROWS x 5 record buffer
    # (40 * 1024 * 5 = 204,800 bytes) and dropped the unused bytes of it
    array = np.random.default_rng(4).standard_normal((3, 5))
    write_csv(tmp_path / "warm.csv", list("abcde"), array)  # builds the tables
    tracemalloc.start()
    try:
        path = write_csv(tmp_path / "s.csv", list("abcde"), array)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * CSV_CHUNK_ROWS * 5 // 8, peak   # about 12.5 kB
    assert path.read_bytes() == reference_csv(list("abcde"), array.tolist())


def percent_csv(path, header, array):
    """The %-format array writer that ``write_csv`` replaced: one format
    string per 4096-row slice.  Kept as the memory yardstick."""
    line = ",".join(["%.12g"] * array.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for i0 in range(0, len(array), 4096):
            block = array[i0 : i0 + 4096]
            fh.write((line * len(block)) % tuple(block.ravel().tolist()))


def bit_floats(u):
    return float(np.array(u, np.uint64).view(np.float64))


def near(x):
    """x and its neighbouring doubles."""
    return st.sampled_from([x, math.nextafter(x, 0.0),
                            math.nextafter(x, math.inf)])


# values the digit tables must get right or hand to the fallback: raw bit
# patterns (subnormals, nan payloads, huge exponents), 10**k and its
# neighbours, 12-digit half-ties (m + 0.5) * 10**j, the fixed/exponential
# switches at exponents -5/-4 and 11/12, 3-digit exponents, zeros
NOTATION_EDGES = [9.9999999999949e-05, 9.99999999999e-05, 9.999999999995e-05,
                  1e-4, 99999999999.95, 999999999999.0, 999999999999.4,
                  999999999999.5, 999999999999.6, 1e12, 9.999999999995e99,
                  1e100, 9.9999999999949e-100, 1e-100, 1e-280, 1e280,
                  5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]
ARRAY_VALUES = st.one_of(
    st.integers(0, 2**64 - 1).map(bit_floats),
    st.integers(-323, 308).map(lambda k: float(f"1e{k}")).flatmap(near),
    st.builds(lambda m, j: float(f"{m}5e{j}"), st.integers(10**11, 10**12 - 1),
              st.integers(-300, 295)).flatmap(near),
    st.sampled_from(NOTATION_EDGES).flatmap(near),
    st.sampled_from([0.0, math.inf, math.nan]),
    st.floats(allow_nan=False, allow_infinity=False),
).flatmap(lambda v: st.sampled_from([v, -v]))
ARRAYS = st.integers(1, 5).flatmap(lambda width: st.lists(
    st.lists(ARRAY_VALUES, min_size=width, max_size=width),
    min_size=1, max_size=30))


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=ARRAYS)
def test_array_csv_matches_reference_writer(tmp_path, rows):
    header = [f"c{j}" for j in range(len(rows[0]))]
    path = write_csv(tmp_path / "array.csv", header, np.array(rows))
    assert path.read_bytes() == reference_csv(header, rows)


def test_array_csv_splices_fallback_rows_at_chunk_edges(tmp_path):
    rng = np.random.default_rng(7)
    n = 2 * CSV_CHUNK_ROWS + 3
    array = rng.standard_normal((n, 4)) * 10.0 ** rng.integers(-30, 30, (n, 4))
    # nan, a half-tie and a subnormal in the first and last rows of chunks,
    # two adjacent rows, and the last row of the table
    edges = [0, 1, CSV_CHUNK_ROWS - 1, CSV_CHUNK_ROWS, 2 * CSV_CHUNK_ROWS - 1,
             2 * CSV_CHUNK_ROWS, n - 1]
    odd = [math.nan, 1234567890125.0, 5e-324, -math.inf]
    for i, row in enumerate(edges):
        array[row, i % 4] = odd[i % 4]
    array[5, :] = math.nan                       # a row with no fast value
    header = ["a", "b", "c", "d"]
    expect = reference_csv(header, array.tolist())
    assert write_csv(tmp_path / "a.csv", header, array).read_bytes() == expect


class RecordingBytes(io.BytesIO):
    """File object that keeps each payload written to it."""

    def __init__(self):
        super().__init__()
        self.payloads = []

    def write(self, data):
        self.payloads.append(bytes(data))
        return super().write(data)


@pytest.mark.parametrize("chunk", [1, 2, 7, 1024])
def test_array_csv_bytes_do_not_depend_on_the_slice_size(monkeypatch, chunk):
    # fallback rows (nan, a half-tie, a subnormal) are the last rows of the
    # three full slices, and the short final slice follows a slice whose tail
    # held one: records an earlier slice left in the buffer must never be
    # written
    monkeypatch.setattr(cli, "CSV_CHUNK_ROWS", chunk)
    rng = np.random.default_rng(chunk)
    n = 3 * chunk + chunk // 2
    array = rng.standard_normal((n, 3)) * 10.0 ** rng.integers(-30, 30, (n, 3))
    odd = [math.nan, 1234567890125.0, 5e-324]
    full = n // chunk * chunk
    for k, row in enumerate(range(chunk - 1, full, chunk)):
        array[row, k % 3] = odd[k % 3]
    header = ["a", "b", "c"]
    fh = RecordingBytes()
    cli._write_array(fh, array)
    assert len(fh.payloads) == -(-n // chunk)
    assert not any(b"\0" in payload for payload in fh.payloads)
    expect = reference_csv(header, array.tolist())
    assert b"a,b,c\n" + fh.getvalue() == expect


def test_array_csv_on_ties_and_powers_of_ten(tmp_path):
    # the hypothesis property above draws few values this close to a
    # rounding boundary; here are 20k half-ties, each of which lands within
    # 1.3e-4 of the half and so inside the tie margin (rounding y to the
    # nearest integer would misprint 37% of them), and every power of ten
    # with its neighbours
    rng = np.random.default_rng(11)
    ties = [float(f"{m}5e{j}") for m, j in zip(
        rng.integers(10**11, 10**12, 20000), rng.integers(-300, 295, 20000))]
    powers = [float(f"1e{k}") for k in range(-323, 309)]
    values = ties + powers + [math.nextafter(p, s) for p in powers
                              for s in (0.0, math.inf)]
    values += [-v for v in values]
    array = np.array(values[: len(values) // 4 * 4]).reshape(-1, 4)
    expect = reference_csv(list("abcd"), array.tolist())
    assert write_csv(tmp_path / "t.csv", list("abcd"),
                     array).read_bytes() == expect


def test_array_csv_takes_values_up_to_the_tie_margin(tmp_path, monkeypatch):
    # |y - m| in [0.499, _TIE_MARGIN): inside the 2-ulp error bound of y,
    # so the digit tables format them, with the bytes of %.12g
    rng = np.random.default_rng(13)
    n = 40000
    v = np.array([float(f"{m}.{f}e{j}") for m, f, j in zip(
        rng.integers(10**11, 10**12 - 1, n),
        rng.choice(["4991", "4993", "5007", "5009"], n),
        rng.integers(-280, 280, n))]) * rng.choice([-1.0, 1.0], n)
    e = np.floor(np.log10(np.abs(v)))
    y = np.abs(v) * np.array([float(f"1e{11 - k:.0f}") for k in e])
    d = np.abs(y - np.rint(y))
    v = v[(d >= 0.499) & (d < cli._TIE_MARGIN)]
    assert len(v) > n // 2
    array = v[: len(v) // 4 * 4].reshape(-1, 4)
    calls = []
    monkeypatch.setattr(cli, "_fmt", lambda v: calls.append(v) or _fmt(v))
    path = write_csv(tmp_path / "m.csv", list("abcd"), array)
    assert not calls
    monkeypatch.undo()
    assert path.read_bytes() == reference_csv(list("abcd"), array.tolist())


def test_array_csv_fast_path_covers_simulate_rows(tmp_path, monkeypatch):
    # guards against the digit tables silently failing over to ``_fmt``:
    # on a fig1 timeseries under 0.5% of the rows may take the fallback
    # (a value does so with probability 6e-4, a row of four with 2.4e-3)
    config = resolve_config({"preset": "fig1", "sim": {"t_final": 2.0}})
    system = config.build_system()
    result = simulate(system, config.build_gains(system), config.disturbance,
                      config.noise, config.sim)
    array = result.timeseries
    calls = []
    monkeypatch.setattr(cli, "_fmt", lambda v: calls.append(v) or _fmt(v))
    header = ["t", "norm_e", "norm_z", "V", "y", "norm_residual"]
    path = write_csv(tmp_path / "ts.csv", header, array)
    assert len(calls) / 6 < 0.005 * len(array), len(calls)
    monkeypatch.undo()
    assert path.read_bytes() == reference_csv(header, array.tolist())


def test_array_csv_memory_stays_below_the_percent_writer(tmp_path):
    array = np.random.default_rng(3).standard_normal((20000, 6))
    header = list("abcdef")
    write_csv(tmp_path / "warm.csv", header, array[:1])   # builds the tables
    peaks = []
    for writer in (write_csv, percent_csv):
        tracemalloc.start()
        try:
            writer(tmp_path / "m.csv", header, array)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # the %-format writer holds about 1.3 MB per 4096-row slice
    assert peaks[0] <= peaks[1], peaks


def test_main_parses_with_one_parser(tmp_path, capsys):
    path = write_config(tmp_path, {"preset": "fig1"})
    argvs = [["check", "--config", path, "--seed", "3"],
             ["check", "--config", path, "--out", str(tmp_path)],
             ["bogus", "--config", path]]
    for argv in argvs:
        outcome = []
        for parser in (cli._parser(), cli._parser.__wrapped__()):
            try:
                outcome.append(vars(parser.parse_args(argv)))
            except SystemExit as exc:
                outcome.append(exc.code)
        assert outcome[0] == outcome[1], argv
    assert cli._parser() is cli._parser()
    assert main(argvs[0]) == 0
    with pytest.raises(SystemExit) as exc:
        main(argvs[2])
    assert exc.value.code == 2
    assert main(argvs[1]) == 0
    assert "invalid choice: 'bogus'" in capsys.readouterr().err
