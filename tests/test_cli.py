import math
import re

import numpy as np
import pytest
import yaml

from piezobeam.cli import CSV_CHUNK_ROWS, _fmt, main, write_csv
from piezobeam.config import PRESETS, load_config, resolve_config
from piezobeam.errors import ConfigError
from piezobeam.signals import NoiseWaveform
from piezobeam.simulate import Coupling
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
    path = write_config(tmp_path, {"placement": {"x0": 0.5}})
    assert main(["check", "--config", path]) == 1
    out = capsys.readouterr().out
    assert "mode 2" in out


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
], ids=["nan-t_final", "inf-t_final", "nan-text-t_final", "huge-int-t_final",
        "seed-flag", "sim-seed", "lambda_L-zero", "bounds-a1-zero"])
def test_bad_inputs_exit_with_their_documented_code(tmp_path, capsys, command,
                                                    data, flags, code, line):
    # each of these ended in a traceback (exit 1, "placement check failed")
    path = write_config(tmp_path, {"preset": "fig1", **data})
    out = tmp_path / "out"
    assert main([command, "--config", path, "--out", str(out), *flags]) == code
    err = capsys.readouterr().err
    assert err.startswith(line)
    assert "Traceback" not in err
    assert not out.exists()     # refused before any artifact is written


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
    # (762600 + 1) x 22 history is just over 2^24 values.  1e308 used to
    # end in an OverflowError traceback at int(round(t_final / dt)).
    path = write_config(tmp_path, {"preset": "fig1",
                                   "sim": {"t_final": t_final}})
    assert main(["simulate", "--config", path, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: t_final = {t_final:g} at "
                          f"dt = 2.500e-04 takes {steps} steps")
    assert "-state history exceeds 16777216 values" in err
    assert not (tmp_path / "fig1_timeseries.csv").exists()


def test_residual_mode_runs_have_the_same_step_limit(tmp_path, capsys):
    # at a1 = 1e-300 each residual mode of bounds would settle over 1.5e302
    # steps: a run without end, now refused
    path = write_config(tmp_path, {"preset": "fig1", "beam": {"a1": 1e-300}})
    assert main(["bounds", "--config", path, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: t_final = ")
    assert "steps; their 2-state history exceeds 16777216 values" in err


def test_simulate_row_count_and_header(tmp_path, capsys):
    path = write_config(tmp_path, {"preset": "fig1", **fast_sim_overrides()})
    assert main(["simulate", "--config", path, "--out", str(tmp_path)]) == 0
    csv = (tmp_path / "fig1_timeseries.csv").read_text().splitlines()
    assert csv[0] == "t,norm_e,norm_z,V,y,norm_residual"
    assert len(csv) == 1 + int(round(0.4 / 5e-4)) + 1   # header + T/dt + 1


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
    # hands it over, which takes the row path
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
