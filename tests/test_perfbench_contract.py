"""The benchmark harness in perfbench/ reads spinfcs entry points by name:
its tracer wraps every (module, attribute) of `spans.TARGETS`, and its own
tests call `sector.cycle_bonds` and `SectorBasis.right_ones`.  Each of them
must resolve, or `bench.py --trace` breaks with no other test failing;
traced runs of the exact, the noisy and the noiseless sampled workloads
also check that the wrapped calls still go through with the arguments the
package passes.  Its observer of `noise.postselect` counts bool(result),
which a returned array would break the same way, and its observer of
`sampler.run_sampled` sums `r.kept` over the `SampledRun.records` of the
result, a name it alone reads.  Its workloads are `spinfcs run` configs: a
config check that refused one, or outputs that its checks reject (a
change of the seeded sampled draws can move a moment past its z-score
limit), would fail operations of it with no other test failing."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from spinfcs import cli, noise

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _import_perfbench(name: str):
    """perfbench/<name>.py, imported without writing into perfbench/."""
    sys.path.insert(0, str(PERFBENCH))
    write_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        return importlib.import_module(name)
    finally:
        sys.dont_write_bytecode = write_bytecode
        sys.path.remove(str(PERFBENCH))


workloads = _import_perfbench("workloads")
spans = _import_perfbench("spans")
NAMES = [(module, attr) for module, attr, _ in spans.TARGETS] + [
    ("sector", "cycle_bonds"),
    ("sector", "SectorBasis.right_ones"),
]


@pytest.mark.parametrize("module, attr", NAMES, ids=[f"{m}.{a}" for m, a in NAMES])
def test_harness_name_resolves(module, attr):
    owner = importlib.import_module(f"spinfcs.{module}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


@pytest.mark.parametrize("mode", noise.POSTSELECT_MODES)
def test_postselect_returns_a_python_bool(mode):
    # the tracer's `_postselect` observer counts bool(result) per call
    b_i = [1, 1, 0, 1, 1, 0, 0, 0]
    for b_f in (b_i, [0, 1, 0, 1, 1, 0, 0, 1], [1, 1, 1, 1, 1, 0, 0, 0]):
        for cycles in (1, 2):
            assert type(noise.postselect(b_i, b_f, cycles, mode)) is bool


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_workload_config_parses(workload):
    config = workloads.make_config(workload, workloads.DEFAULT_SEED)
    assert cli._parse_config(config)["mode"] == config["mode"]


# The seeded workloads also run at the other seeds the harness has been
# run at: a change of the draws must pass its checks at each of them.
SEEDED_RUNS = [(w, workloads.DEFAULT_SEED) for w in workloads.WORKLOADS] + [
    (w, seed) for w in ("sampled-n12", "noisy-n10") for seed in (27182, 31415)
]


@pytest.mark.parametrize(
    "workload, seed",
    SEEDED_RUNS,
    ids=[w if s == workloads.DEFAULT_SEED else f"{w}-{s}" for w, s in SEEDED_RUNS],
)
def test_workload_outputs_pass_the_harness_checks(workload, seed, tmp_path):
    config = workloads.make_config(workload, seed)
    path, out = tmp_path / "config.json", tmp_path / "out"
    path.write_text(json.dumps(config))
    args = ["run", "--config", str(path), "--out", str(out), "--threads", "1"]
    assert cli.main(args) == 0
    reference = workloads.MEAN_REFERENCES.get(workload)
    problems = workloads.check_outputs(config, str(out), reference)
    assert {op: found for op, found in problems.items() if found} == {}


@pytest.mark.parametrize("workload", ["noisy-n10", "sampled-n12", "exact-n14"])
def test_a_traced_run_records_its_layer_spans(workload, tmp_path):
    # what `bench.py --trace 1` runs: child.py in a fresh interpreter, with
    # every entry point of `spans.TARGETS` wrapped
    config, report = tmp_path / "config.json", tmp_path / "report.json"
    spec = workloads.make_config(workload, workloads.DEFAULT_SEED)
    config.write_text(json.dumps(spec))
    saved = tmp_path / "spans.npz"
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    src = str(PERFBENCH.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    args = [str(report), str(config), str(tmp_path / "out"), "--spans", str(saved), "r"]
    child = subprocess.run(
        [sys.executable, str(PERFBENCH / "child.py"), *args],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=600,
    )
    assert child.returncode == 0, child.stderr
    result = json.loads(report.read_text())
    assert "error" not in result and result["exit_code"] == 0
    traced = spans.load(str(saved))
    counts = traced["counts"]
    called = {traced["names"][i] for i in set(traced["name"].tolist())}
    # the kept-shot counter sums `r.kept` over `SampledRun.records`
    if workload == "sampled-n12":
        assert counts["sampler.kept_shots"] == counts["sampler.shots"]
        assert counts["sampler.dropped_states"] == 0
    elif workload == "noisy-n10":
        assert 0 < counts["sampler.kept_shots"] <= counts["sampler.shots"]
        # `noise.damping_s` of the harness reads the self time of damp_bits
        assert {
            "noise.disorder_and_dephasing", "noise.readout_flip", "noise.damp_bits"
        } <= called
    if workload != "noisy-n10":
        # both ends of the block engine read out through the kernel, whose
        # observer reads the size of its second argument
        assert "_kernels.readout_accumulate" in called
