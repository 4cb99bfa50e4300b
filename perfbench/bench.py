"""Benchmark of `spinfcs run` on fixed exact, sampled and noisy workloads.

    python3 perfbench/bench.py --workload exact-n14 [--seed N] [--seconds S] [--trace 0|1]

A closed loop: one client runs one config at a time, with `--threads 1`,
each run in a fresh interpreter with `PYTHONPATH=src`.  With `--trace 0`
the runs are untraced and the result line carries the end-to-end metrics.
With `--trace 1` each untraced run is followed by a traced one, and the
result line carries the per-layer metrics of the traced runs.  Every run's
outputs are checked; the last line of standard output is one JSON object
with `correct`, `attempted`, `failed` and `metrics`.  The line before it
holds the full record (environment, samples, failures, every per-layer
time in seconds), which is also written under `.perfbench/`.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD = Path(__file__).resolve().parent / "child.py"
OUT_ROOT = ROOT / ".perfbench"
BUDGET_S = 170.0
SETUP_SAMPLES = 7

END_TO_END = {
    "wall_s": "s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "ok_frac": "frac",
}

INCL, SELF = 0, 1  # indices into a spans.layer_times entry

# per-layer seconds, each the sum of self (or inclusive) span times
LAYER_SECONDS = {
    "kernels.fsim_s": [("_kernels.apply_fsim_tables", SELF)],
    "kernels.readout_s": [("_kernels.readout_accumulate", SELF)],
    "ensemble.tensor_s": [("ensemble.transfer_tensor", INCL)],
    "ensemble.tensor_self_s": [("ensemble.transfer_tensor", SELF)],
    "ensemble.reweight_s": [("ensemble.distribution_from_tensor", SELF)],
    "sector.basis_s": [
        ("sector.sector_basis", SELF),
        ("sector.SectorBasis.__init__", SELF),
    ],
    "sector.bond_tables_s": [("sector.SectorBasis.bond_tables", SELF)],
    "sector.evolve_s": [
        ("sector.SectorState.apply_fsim", SELF),
        ("sector.SectorState.apply_cycle", SELF),
    ],
    "sector.diag_phase_s": [("sector.SectorState.apply_diagonal_phases", SELF)],
    "sampler.run_s": [("sampler.run_sampled", INCL)],
    "sampler.self_s": [("sampler.run_sampled", SELF), ("sampler.moment_report", SELF)],
    "sampler.moment_report_s": [("sampler.moment_report", INCL)],
    "noise.damping_s": [("noise.damping_step", SELF), ("noise.damp_bits", SELF)],
    "noise.readout_s": [("noise.readout_flip", SELF)],
    "noise.disorder_s": [("noise.disorder_and_dephasing", SELF)],
    "noise.postselect_s": [("noise.postselect", SELF)],
    "stats.jackknife_s": [("stats.jackknife_sigma", SELF)],
    "stats.moments_s": [("stats.central_moments", SELF)],
    "stats.collapse_s": [("stats.collapse_scan", SELF)],
    "cli.self_s": [("cli.cmd_run", SELF)],
}

# Layers that run on every workload report seconds in the result line.  The
# others report their share of the traced wall time there, so that a layer a
# workload never calls reads 0 as a share and not as a constant time.
ALWAYS_ACTIVE = {
    "kernels.fsim_s",
    "sector.basis_s",
    "sector.bond_tables_s",
    "stats.moments_s",
    "cli.self_s",
}

LAYER_COUNTS = {
    "kernels.fsim_calls": "count",
    "kernels.amp_updates": "count",
    "kernels.bytes_moved_computed": "B",
    "ensemble.columns_evolved": "count",
    "ensemble.reweight_calls": "count",
    "sector.bases_built": "count",
    "sector.gate_calls": "count",
    "sampler.states": "count",
    "sampler.shots": "count",
    "sampler.dropped_states": "count",
    "noise.damping_steps": "count",
    "noise.jumps": "count",
    "noise.postselect_calls": "count",
    "stats.jackknife_evals": "count",
    "cli.bytes_written": "B",
}

LAYER_RATIOS = {
    "kernels.amp_updates_per_s": "1/s",
    "sampler.yield": "frac",
    "noise.causal_accept_ratio": "frac",
    "trace.overhead_frac": "frac",
    "trace.accounted_frac": "frac",
}


def share_name(metric: str) -> str:
    return metric if metric in ALWAYS_ACTIVE else metric[: -len("_s")] + "_share"


def per_layer_units() -> dict:
    """Name and unit of every metric in a traced result line."""
    units = {
        share_name(m): "s" if m in ALWAYS_ACTIVE else "frac" for m in LAYER_SECONDS
    }
    return {**units, **LAYER_COUNTS, **LAYER_RATIOS}


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {key: blas.get(key) for key in ("name", "version")}
    except (TypeError, KeyError):
        blas = None
    try:
        import numba

        numba_version = numba.__version__
    except ImportError:
        numba_version = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": metadata.version("scipy"),
        "blas": blas,
        "numba": numba_version,
        "SPINFCS_NO_NUMBA": os.environ.get("SPINFCS_NO_NUMBA"),
        "threads": 1,
        "git_commit": _git_commit(),
    }


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: ") :]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def spawn(work: Path, config_path: Path, deadline: float, *extra: str) -> dict:
    """Run child.py once, with `extra` arguments, and return its report with
    `setup_s` added.  The run writes its artifacts to `work/out`."""
    report_path = work / "report.json"
    report_path.unlink(missing_ok=True)
    shutil.rmtree(work / "out", ignore_errors=True)
    cmd = [sys.executable, str(CHILD), str(report_path), str(config_path),
           str(work / "out"), *extra]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    started = time.monotonic()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        _, stderr = proc.communicate(timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        proc.kill()
        _, stderr = proc.communicate()
        stderr += "\nerror: run killed at the time budget"
    report = {}
    if report_path.is_file():
        report = json.loads(report_path.read_text())
        report["setup_s"] = report.pop("ready_clock") - started
    report["returncode"] = proc.returncode
    report["stderr"] = stderr[-4000:]
    return report


def full_run(work, config, config_path, deadline, mean_reference, *, run_id=None):
    """One checked `spinfcs run`; traced when `run_id` is given."""
    spans_path = work / "spans.npz"
    spans_path.unlink(missing_ok=True)
    extra = () if run_id is None else ("--spans", str(spans_path), run_id)
    report = spawn(work, config_path, deadline, *extra)
    if report["returncode"] == 0 and report.get("exit_code") == 0:
        problems = workloads.check_outputs(config, str(work / "out"), mean_reference)
    else:
        reason = _last_line(report.get("error") or report["stderr"]) or "run failed"
        problems = {op: [reason] for op in workloads.operations(config)}
    report["attempted"] = len(problems)
    report["failures"] = {
        f"mu={mu} t={t}": found for (mu, t), found in problems.items() if found
    }
    if run_id is not None and spans_path.is_file() and "wall_s" in report:
        saved = spans.load(spans_path)
        report["run_id"] = saved["run_id"]
        report["layers"] = layer_metrics(saved, report["wall_s"])
        out_dir = work / "out"
        report["layers"]["cli.bytes_written"] = sum(
            p.stat().st_size for p in out_dir.iterdir()
        ) if out_dir.is_dir() else 0
        spans_path.unlink()
    return report


def _last_line(text: str) -> str:
    lines = [ln for ln in (text or "").splitlines() if ln.strip()]
    return lines[-1] if lines else ""


def layer_metrics(saved: dict, wall_s: float) -> dict:
    """Every per-layer metric of one traced run, times in seconds."""
    times = spans.layer_times(saved)
    counts = saved["counts"]
    out = {}
    for metric, parts in LAYER_SECONDS.items():
        out[metric] = sum(times[name][which] for name, which in parts)
    for metric in LAYER_COUNTS:
        out[metric] = counts.get(metric, 0)
    out["kernels.amp_updates_per_s"] = (
        counts.get("kernels.amp_updates", 0) / out["kernels.fsim_s"]
        if out["kernels.fsim_s"] > 0 else 0.0
    )
    shots = counts.get("sampler.shots", 0)
    out["sampler.yield"] = counts.get("sampler.kept_shots", 0) / shots if shots else 0.0
    causal = counts.get("noise.causal_calls", 0)
    out["noise.causal_accept_ratio"] = (
        counts.get("noise.causal_accepted", 0) / causal if causal else 0.0
    )
    out["trace.accounted_frac"] = sum(t[SELF] for t in times.values()) / wall_s
    return out


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    start = time.monotonic()
    deadline = start + BUDGET_S
    config = workloads.make_config(workload, seed)
    mean_reference = workloads.MEAN_REFERENCES.get(workload)
    work = OUT_ROOT / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config_path = work / "config.json"
    config_path.write_text(json.dumps(config, indent=2) + "\n")

    spawn(work, config_path, deadline, "--setup-only")  # warm caches
    measuring = time.monotonic()
    untraced, traced = [], []
    while not untraced or time.monotonic() - measuring < seconds:
        pass_start = time.monotonic()
        untraced.append(full_run(work, config, config_path, deadline, mean_reference))
        if trace:
            run_id = f"{workload}-seed{seed}-{len(traced)}"
            traced.append(
                full_run(work, config, config_path, deadline, mean_reference,
                         run_id=run_id)
            )
        # stop early rather than run into the time budget
        pass_s = time.monotonic() - pass_start
        if time.monotonic() + pass_s > deadline - SETUP_SAMPLES * 2:
            break
    setups = [r["setup_s"] for r in untraced if "setup_s" in r]
    while not trace and len(setups) < SETUP_SAMPLES and time.monotonic() < deadline:
        report = spawn(work, config_path, deadline, "--setup-only")
        if "setup_s" not in report:
            break
        setups.append(report["setup_s"])
    shutil.rmtree(work / "out", ignore_errors=True)

    runs = untraced + traced
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(len(r["failures"]) for r in runs)
    walls = [r["wall_s"] for r in untraced if "wall_s" in r]
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "config": config,
        "environment": environment(),
        "closed_loop": {"clients": 1, "threads": 1},
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "failures": [r["failures"] for r in runs if r["failures"]],
        "samples": {
            "wall_s": walls,
            "setup_s": setups,
            "peak_rss_mb": [r["peak_rss_mb"] for r in untraced if "peak_rss_mb" in r],
        },
    }
    if not walls:
        raise RuntimeError("no run produced a wall time: " + json.dumps(record["failures"]))
    if trace:
        record["layers"] = _traced_layers(untraced, traced)
        record["metrics"] = {
            name: {"value": record["layers"][name], "unit": unit}
            for name, unit in per_layer_units().items()
        }
    else:
        wall = statistics.median(walls)
        values = {
            "wall_s": wall,
            "work_per_s": workloads.nominal_work(config) / wall,
            "peak_rss_mb": statistics.median(record["samples"]["peak_rss_mb"]),
            "setup_s": statistics.median(setups),
            "ok_frac": 1.0 - failed / attempted,
        }
        record["metrics"] = {
            name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END.items()
        }
    return record


def _traced_layers(untraced, traced) -> dict:
    """Medians over traced runs of every layer metric, plus the tracing
    overhead and each layer time's share of the traced wall time."""
    pairs = [(u, t) for u, t in zip(untraced, traced) if "layers" in t and "wall_s" in u]
    if not pairs:
        raise RuntimeError("no traced run produced spans")
    per_run = []
    for u, t in pairs:
        layers = dict(t["layers"])
        for metric in LAYER_SECONDS.keys() - ALWAYS_ACTIVE:
            layers[share_name(metric)] = layers[metric] / t["wall_s"]
        layers["trace.overhead_frac"] = t["wall_s"] / u["wall_s"] - 1.0
        per_run.append(layers)
    merged = {"run_ids": [t["run_id"] for _, t in pairs]}
    for key in per_run[0]:
        merged[key] = statistics.median(layers[key] for layers in per_run)
    merged["samples"] = len(per_run)
    return merged


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "spinfcs" / "cli.py").is_file():
        print(f"error: no spinfcs sources under {SRC}", file=sys.stderr)
        return 2
    try:
        record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    (OUT_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )
    for name, metric in record["metrics"].items():
        print(f"{name} = {metric['value']!r} {metric['unit']}", file=sys.stderr)
    print(json.dumps(record))
    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
