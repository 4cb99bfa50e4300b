"""Tests of the benchmark harness itself; they are not part of the tier-1 suite.

    PYTHONPATH=src python3 -m pytest perfbench/test_perfbench.py
"""

import json
import math
import shutil
import subprocess
import sys
import time

from spinfcs.sector import cycle_bonds, sector_basis

import bench
import workloads


def run(tmp_path, overrides, *, traced=False, mean_reference=None):
    config = {"theta": workloads.THETA, "phi": workloads.PHI, **overrides}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    return bench.full_run(
        tmp_path,
        config,
        config_path,
        time.monotonic() + 170,
        mean_reference,
        run_id="test" if traced else None,
    )


def test_exact_checks_pass_and_catch_a_corrupted_mass(tmp_path):
    config = {"mode": "exact", "n_qubits": 8, "cycles": 4, "mu": [0.0, 0.5, "inf"]}
    report = run(tmp_path, config)
    assert report["attempted"] == 12
    assert report["failures"] == {}
    path = tmp_path / "out" / "distributions_mu0.5.csv"
    lines = path.read_text().splitlines()
    cycle, m, p = lines[-1].split(",")
    lines[-1] = f"{cycle},{m},{float(p) + 1e-6!r}"
    path.write_text("\n".join(lines) + "\n")
    problems = workloads.check_outputs(config, str(tmp_path / "out"))
    assert [op for op, found in problems.items() if found] == [("0.5", 4)]


def test_exponent_fit_on_mu0_is_counted_as_failed_operations(tmp_path):
    # the mu=0 mean is zero to rounding, so the fit aborts the whole run
    report = run(
        tmp_path,
        {
            "mode": "exact",
            "n_qubits": 12,
            "cycles": 6,
            "mu": [0.0],
            "analysis": {"exponent_window": [1, 6]},
        },
    )
    assert report["attempted"] == 6
    assert len(report["failures"]) == 6
    for found in report["failures"].values():
        assert "fitted slope" in found[0] and "is not positive" in found[0]


def test_zero_variance_jackknife_subset_is_counted_as_failed_operations(tmp_path):
    # low yield leaves states whose jackknife subsets have zero variance,
    # and moment_report raises UndefinedMomentsError
    report = run(
        tmp_path,
        {
            "mode": "noisy-sampled",
            "n_qubits": 6,
            "cycles": 3,
            "mu": [0.5],
            "initial_states": 10,
            "shots_per_state": 100,
            "postselect": "causal",
            "seed": 1,
            "noise": {"t1_cycles": 1},
        },
    )
    assert report["attempted"] == 3
    assert len(report["failures"]) == 3
    for found in report["failures"].values():
        assert "variance" in found[0] and "is not positive" in found[0]


def _exact_amp_updates(n_qubits, cycles):
    """Amplitude updates of the mirror-reduced tensor, from bond tables."""
    total = 0
    for k in range(n_qubits + 1):
        basis = sector_basis(n_qubits, k)
        r_of = basis.right_ones()
        columns = int(((k - r_of) >= r_of).sum())
        rows = 0
        for bond in cycle_bonds(n_qubits):
            i01, _, i11, _ = basis.bond_tables(bond)
            rows += 2 * i01.size + i11.size
        total += columns * rows
    return total * cycles


def test_work_counts_are_exact_and_repeat(tmp_path):
    work_counts = (
        "ensemble.columns_evolved",
        "kernels.amp_updates",
        "kernels.bytes_moved_computed",
    )
    exact = {"mode": "exact", "n_qubits": 8, "cycles": 4, "mu": [0.0]}
    noisy = {
        "mode": "noisy-sampled",
        "n_qubits": 6,
        "cycles": 2,
        "mu": [0.5],
        "initial_states": 5,
        "shots_per_state": 20,
        "postselect": "causal",
        "seed": 3,
        "noise": {"t1_cycles": 5, "dephasing_sd": 0.05},
    }
    for config in (exact, noisy):
        first, second = (run(tmp_path, config, traced=True) for _ in range(2))
        for name in work_counts:
            assert first["layers"][name] == second["layers"][name], name
        assert first["layers"]["kernels.amp_updates"] > 0
    assert first["layers"]["noise.damping_steps"] > 0
    assert first["layers"]["ensemble.columns_evolved"] == 0
    exact_layers = run(tmp_path, exact, traced=True)["layers"]
    assert exact_layers["ensemble.columns_evolved"] == workloads.mirror_columns(8)
    assert exact_layers["kernels.amp_updates"] == _exact_amp_updates(8, 4)


def test_traced_self_times_account_for_the_run(tmp_path):
    report = run(
        tmp_path,
        {"mode": "sampled", "n_qubits": 6, "cycles": 3, "mu": [0.0],
         "initial_states": 20, "shots_per_state": 50, "seed": 5},
        traced=True,
    )
    assert report["failures"] == {}
    layers = report["layers"]
    assert 0.9 < layers["trace.accounted_frac"] <= 1.0
    # every span name feeds exactly one self-time metric
    self_sum = sum(
        layers[m] for m, parts in bench.LAYER_SECONDS.items()
        if all(which == bench.SELF for _, which in parts)
    )
    assert math.isclose(self_sum, layers["trace.accounted_frac"] * report["wall_s"])
    assert layers["sampler.shots"] == 3 * 20 * 50
    assert layers["stats.jackknife_evals"] == 3 * 4 * 21


def test_benchmark_json_matches_the_harness():
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.per_layer_units()


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(bench.ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/bench.py", "--workload", "noisy-n10"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
