import math

import numpy as np
import pytest
import yaml

from piezobeam.cli import CSV_CHUNK_ROWS, _fmt, main, write_csv
from piezobeam.config import PRESETS, load_config, resolve_config
from piezobeam.errors import ConfigError
from piezobeam.signals import NoiseWaveform
from piezobeam.simulate import Coupling


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


def test_infeasible_placement_exit_code(tmp_path, capsys):
    # full-span patch kills mode 2: tuning cannot place poles
    path = write_config(tmp_path, {
        "N": 2, "placement": {"x1": 0.0, "x2": 1.0, "x0": 0.3},
        **fast_sim_overrides(),
    })
    assert main(["tune", "--config", path, "--out", str(tmp_path)]) == 3
    assert "infeasible" in capsys.readouterr().err


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
        consumed = []

        def once(rows=rows):
            for row in rows:
                consumed.append(row)
                yield row

        path = write_csv(tmp_path / f"{name}.csv", header, once())
        assert len(consumed) == len(rows), name
        assert path.read_bytes() == reference_csv(header, rows), name
