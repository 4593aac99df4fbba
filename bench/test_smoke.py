"""Smoke test of the benchmark itself at tiny sizes.

    python3 -m pytest bench/test_smoke.py -q

Runs every workload traced and untraced for a fraction of a second with
inputs scaled down to a few problems, compares the results with
compare.py, checks that an exact solver made slightly wrong makes the
fuzz workload incorrect, and that the benchmark refuses to run without
the library's source.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, trace, out, seed=3, root=ROOT):
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.2", "--trace", str(trace), "--scale", "0.01", "--out", str(out)],
        capture_output=True, text=True, cwd=root, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().split("\n")[-1]), done.stdout


def copy_checkout(dest):
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    shutil.copytree(BENCH, dest / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_every_metric(workload, trace, tmp_path):
    result, _ = run(workload, trace, tmp_path)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    assert all(m["value"] > 0 or name == "trace.overhead_pct"
               for name, m in result["metrics"].items())
    saved = json.loads((tmp_path / f"{workload}-seed3-trace{trace}.json").read_text())
    assert saved["environment"]["nproc"] >= 1
    assert all({"median", "n"} <= set(m) for m in saved["metrics"].values())


def test_compare_accepts_identical_results(tmp_path):
    run("golden", 0, tmp_path)
    done = subprocess.run([sys.executable, str(BENCH / "compare.py"), str(tmp_path), str(tmp_path)],
                          capture_output=True, text=True, cwd=ROOT, timeout=60)
    assert done.returncode == 0, done.stdout
    assert "cli_cold_s" in done.stdout


# An exact solve that is off by 1e-7 in its star value, placed just before
# the solver derives u* and the wave speeds from it.
PERTURBED = {
    "euler": "    p_star *= 1.0 + 1e-7\n    u_star = 0.5 * (left.u + right.u)",
    "shallow": "    h_star *= 1.0 + 1e-7\n    u_star = 0.5 * (left.u + right.u)",
}


@pytest.mark.parametrize("module", sorted(PERTURBED))
def test_wrong_exact_solve_makes_fuzz_incorrect(module, tmp_path):
    copy_checkout(tmp_path)
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    source = tmp_path / "src" / "riemann_bounds" / f"{module}.py"
    text = source.read_text()
    anchor = "    u_star = 0.5 * (left.u + right.u)"
    assert text.count(anchor) == 1
    source.write_text(text.replace(anchor, PERTURBED[module]))
    result, stdout = run("fuzz", 0, tmp_path / "results", root=tmp_path)
    assert not result["correct"]
    assert "against the oracle" in stdout


def test_refuses_to_run_without_library_source(tmp_path):
    copy_checkout(tmp_path)
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "fuzz", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, cwd=tmp_path, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
