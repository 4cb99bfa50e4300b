"""Span tracing of `spinfcs` layer entry points, from outside the package.

`Tracer.install` replaces each entry point named in `TARGETS` by a wrapper
that records one span per call: name, start, end and parent span.  A
function imported by name into several modules is replaced in every module
that holds it, so `from .noise import damping_step` lookups are traced too;
methods are replaced on their class.  Spans stay in memory and `save`
writes them once, at the end of the run.  Observers add work counters at
the same boundaries.

`layer_times` turns saved spans into per-name inclusive and self times.  A
span's self time is its duration minus the durations of its direct
children; spans nest, so the self times of a run sum to its root span.
"""

import importlib
import json
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

from workloads import mirror_columns

COMPLEX_BYTES = 16
INDEX_BYTES = 8


def _count(name):
    def observe(counts, args, kwargs, result):
        counts[name] += 1

    return observe


def _fsim(counts, args, kwargs, result):
    # apply_fsim_tables(amps, (i01, i10, i11, i00), theta, phi, split_phase)
    amps, (i01, _, i11, i00), split = args[0], args[1], args[4]
    rows = 2 * i01.size + i11.size + (i00.size if split else 0)
    counts["kernels.fsim_calls"] += 1
    counts["kernels.amp_updates"] += rows * amps.shape[1]
    # each updated amplitude is read and written once; each row index once
    counts["kernels.bytes_moved_computed"] += (
        2 * COMPLEX_BYTES * rows * amps.shape[1] + INDEX_BYTES * rows
    )


def _readout(counts, args, kwargs, result):
    # readout_accumulate(amps, r_of, acc): every amplitude read once
    amps, r_of = args[0], args[1]
    counts["kernels.bytes_moved_computed"] += (
        COMPLEX_BYTES * amps.size + INDEX_BYTES * r_of.size
    )


def _tensor(counts, args, kwargs, result):
    n_qubits = args[0]
    mirror = kwargs.get("mirror", True)
    counts["ensemble.columns_evolved"] += (
        mirror_columns(n_qubits) if mirror else 2**n_qubits
    )


def _sampled(counts, args, kwargs, result):
    sample = args[2]
    counts["sampler.states"] += sample.n_initial_states
    counts["sampler.shots"] += sample.n_initial_states * sample.shots_per_state
    counts["sampler.kept_shots"] += sum(r.kept for r in result.records)
    counts["sampler.dropped_states"] += len(result.dropped_states)


def _damping(counts, args, kwargs, result):
    counts["noise.damping_steps"] += 1
    counts["noise.jumps"] += args[0].basis.n_excitations - result.basis.n_excitations


def _postselect(counts, args, kwargs, result):
    counts["noise.postselect_calls"] += 1
    mode = args[3] if len(args) > 3 else kwargs.get("mode", "causal")
    if mode == "causal":
        counts["noise.causal_calls"] += 1
        counts["noise.causal_accepted"] += bool(result)


def _jackknife(counts, args, kwargs, result):
    # one evaluation per deleted state plus the full-sample one
    counts["stats.jackknife_evals"] += len(args[1]) + 1


# (module, attribute, observer); "Class.method" attributes patch the class
TARGETS = [
    ("sector", "sector_basis", None),
    ("sector", "SectorBasis.__init__", _count("sector.bases_built")),
    ("sector", "SectorBasis.bond_tables", None),
    ("sector", "SectorState.apply_fsim", _count("sector.gate_calls")),
    ("sector", "SectorState.apply_cycle", None),
    ("sector", "SectorState.apply_diagonal_phases", None),
    ("_kernels", "apply_fsim_tables", _fsim),
    ("_kernels", "readout_accumulate", _readout),
    ("ensemble", "transfer_tensor", _tensor),
    ("ensemble", "distribution_from_tensor", _count("ensemble.reweight_calls")),
    ("sampler", "run_sampled", _sampled),
    ("sampler", "moment_report", None),
    ("noise", "damping_step", _damping),
    ("noise", "readout_flip", None),
    ("noise", "disorder_and_dephasing", None),
    ("noise", "postselect", _postselect),
    ("noise", "damp_bits", None),
    ("stats", "jackknife_sigma", _jackknife),
    ("stats", "central_moments", None),
    ("stats", "collapse_scan", None),
    ("cli", "cmd_run", None),
]


class Tracer:
    """In-memory span recorder for one run of a single-threaded program."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = defaultdict(int)
        self._stack = [-1]

    def wrap(self, span_name, fn, observe=None):
        """A wrapper that records a span around each call of `fn`."""
        name_id = len(self.names)
        self.names.append(span_name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack, counts, clock = self._stack, self.counts, time.perf_counter

        def traced(*args, **kwargs):
            i = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if observe is not None:
                observe(counts, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every entry point in `TARGETS`, wherever it is looked up."""
        modules = {
            name: importlib.import_module(f"spinfcs.{name}")
            for name in {module for module, _, _ in TARGETS}
        }
        loaded = [
            m for key, m in sys.modules.items() if key.split(".")[0] == "spinfcs"
        ]
        for module, attr, observe in TARGETS:
            owner = modules[module]
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            traced = self.wrap(f"{module}.{attr}", original, observe)
            if path:
                setattr(owner, leaf, traced)
                continue
            for m in loaded:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, traced)

    def save(self, path: str) -> None:
        np.savez(
            path,
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            names=np.array(self.names),
            run_id=np.array(self.run_id),
            counts=np.array(json.dumps(dict(self.counts))),
        )


def load(path: str) -> dict:
    """Saved spans as arrays, plus their names, run id and counters."""
    with np.load(path) as data:
        spans = {key: data[key] for key in ("name", "parent", "start", "end")}
        spans["names"] = [str(n) for n in data["names"]]
        spans["run_id"] = str(data["run_id"])
        spans["counts"] = json.loads(str(data["counts"]))
    return spans


def layer_times(spans: dict) -> dict:
    """{span name: (inclusive seconds, self seconds)}."""
    name, parent = spans["name"], spans["parent"]
    duration = spans["end"] - spans["start"]
    nested = parent >= 0
    child_time = np.bincount(
        parent[nested], weights=duration[nested], minlength=duration.size
    )
    self_time = duration - child_time
    out = {}
    for i, span_name in enumerate(spans["names"]):
        mine = name == i
        out[span_name] = (float(duration[mine].sum()), float(self_time[mine].sum()))
    return out
