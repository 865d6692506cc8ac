"""The benchmark tracer's patch points exist in the program, and a traced
run writes what an untraced one does.

``perfbench/tracer.py`` wraps module attributes by name; a renamed or
removed one would only surface as a failure inside a traced benchmark run.
The tracer is loaded by file path, since ``perfbench`` is not a package.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest
import yaml

from piezobeam import cli

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()


@pytest.mark.parametrize(
    "module, attr", [*tracer.BOUNDARIES, *tracer.COUNTED],
    ids=lambda v: v)
def test_tracer_patch_point_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


def fig1_config(tmp_path):
    config = tmp_path / "fig1.yaml"
    config.write_text(yaml.safe_dump({
        "preset": "fig1",
        "sim": {"t_final": 0.2, "dt": 5e-4, "residual_modes": 2},
        "gains": {"lambda_grid": [6.0, 10.0], "lambda_L": 34.0},
    }))
    return config


def run_simulate(config, out, trace=False):
    """The timeseries CSV of ``cli.main simulate``, and the tracer's counts
    when ``trace``."""
    tr = tracer.Tracer()
    tr.job = 0
    if trace:
        tr.install()
    try:
        assert cli.main(["simulate", "--config", str(config),
                         "--out", str(out)]) == 0
    finally:
        tr.uninstall()
    return (out / "fig1_timeseries.csv").read_bytes(), tr.layer_totals([0])[1]


def test_traced_simulate_writes_the_untraced_csv(tmp_path, capsys):
    # the tracer hands write_csv its rows through a counting iterable
    config = fig1_config(tmp_path)
    plain, _ = run_simulate(config, tmp_path / "plain")
    traced, counts = run_simulate(config, tmp_path / "traced", trace=True)
    assert traced == plain
    assert counts["cli.csv_rows"] == plain.count(b"\n") - 1 == 401
    assert counts["cli.csv_bytes"] == len(plain)


def test_traced_counts_reach_the_result_and_the_noise(tmp_path, capsys,
                                                      monkeypatch):
    # simulate.steps is len(t) - 1 of what cli.simulate returns, so t keeps
    # its n + 1 rows; signals.noise_samples counts the times simulate hands
    # the module attribute piezobeam.simulate.noise_samples, one call per
    # segment of 2m + 1 half-step times: 2n + 1 per run in one segment,
    # 2n + (segments) in several, as segments share their edge row
    sim = importlib.import_module("piezobeam.simulate")
    config = fig1_config(tmp_path)
    _, counts = run_simulate(config, tmp_path / "one", trace=True)
    assert counts["simulate.steps"] == 400
    assert counts["signals.noise_samples"] == 2 * 400 + 1
    monkeypatch.setattr(sim, "CHUNK_ROWS", 128)       # 3 x 128 + 16 steps
    _, counts = run_simulate(config, tmp_path / "four", trace=True)
    assert counts["simulate.steps"] == 400
    assert counts["signals.noise_samples"] == 2 * 400 + 4
