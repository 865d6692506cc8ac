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


def test_traced_simulate_writes_the_untraced_csv(tmp_path, capsys):
    # the tracer hands write_csv its rows through a counting iterable
    config = tmp_path / "fig1.yaml"
    config.write_text(yaml.safe_dump({
        "preset": "fig1",
        "sim": {"t_final": 0.2, "dt": 5e-4, "residual_modes": 2},
        "gains": {"lambda_grid": [6.0, 10.0], "lambda_L": 34.0},
    }))

    def run(out):
        assert cli.main(["simulate", "--config", str(config),
                         "--out", str(out)]) == 0
        return (out / "fig1_timeseries.csv").read_bytes()

    plain = run(tmp_path / "plain")
    tr = tracer.Tracer()
    tr.job = 0
    tr.install()
    try:
        traced = run(tmp_path / "traced")
    finally:
        tr.uninstall()
    assert traced == plain
    _, counts = tr.layer_totals([0])
    assert counts["cli.csv_rows"] == plain.count(b"\n") - 1 == 401
    assert counts["cli.csv_bytes"] == len(plain)
