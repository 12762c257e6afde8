"""The benchmark's own workload configs run through the command line.

``bench/workloads.py`` writes every config the benchmark runs.  Each
workload, shrunk with ``tiny=True``, must pass the config checks and run to
exit 0 in process, writing its command's outputs, so that a change to what
the config accepts cannot break the benchmark unseen.  The module is loaded
from its file and only read: no bytecode is written next to it.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from spsa_lab.cli import main
from test_config_cli import child_env

WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # a dataclass looks its module up in sys.modules while it is built
    sys.modules[spec.name] = module
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


workloads = _load_workloads()

OUTPUTS = {
    "experiment": {"ensemble.csv", "scaling.json"},
    "run": {"trajectory.csv", "run_summary.json"},
    "meanflow": {"fbar_grid.csv", "flow_mean.csv", "eq_report.json"},
}


@pytest.mark.parametrize("name", workloads.NAMES)
def test_benchmark_workload_runs_through_the_cli(tmp_path, name):
    workload = workloads.make(name, 0, tiny=True)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(workload.config), encoding="utf-8")
    out = tmp_path / "out"
    assert main([workload.command, "--config", str(cfg_path), "--out", str(out), "--workers", "1"]) == 0
    assert {p.name for p in out.iterdir()} == OUTPUTS[workload.command] | {"manifest.json"}


# a child that runs each config through cli.main, then lists the modules it loaded
LOADED_AFTER = """
import sys
from spsa_lab.cli import main
for command, cfg, out in zip(*[iter(sys.argv[1:])] * 3):
    assert main([command, "--config", cfg, "--out", out]) == 0
print(" ".join(name for name in ("numpy.ma", "scipy") if name in sys.modules))
"""


def test_experiment_and_meanflow_leave_numpy_ma_and_scipy_unloaded(tmp_path):
    # neither command needs numpy.ma (np.unique loads it) or scipy, and a
    # command's process pays for every module it imports
    args = []
    for name in ("ensemble_desk", "meanflow_sweep"):
        workload = workloads.make(name, 0, tiny=True)
        cfg_path = tmp_path / f"{name}.json"
        cfg_path.write_text(json.dumps(workload.config), encoding="utf-8")
        args += [workload.command, str(cfg_path), str(tmp_path / name)]
    proc = subprocess.run([sys.executable, "-c", LOADED_AFTER, *args], env=child_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []
