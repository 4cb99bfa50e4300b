"""Workload configs, nominal work and output checks of the benchmark.

Each workload is one `spinfcs run` config at the isotropic working point
(theta = 0.4 pi, phi = 0.8 pi, anisotropy 1).  An operation is one
(mu, cycle) distribution; it fails when the run aborts or when any check
on that distribution fails.
"""

import csv
import math
import os

THETA = 0.4 * math.pi
PHI = 0.8 * math.pi
DEFAULT_SEED = 12345

# Frozen excess kurtosis of the mu=0 ensemble per cycle at (THETA, PHI),
# copied from tests/conftest.py.  It is length independent for
# n_qubits >= 2 * cycles.
REFERENCE_KURTOSIS = {
    1: -0.7888543819998315,
    2: -0.3236513411118609,
    3: -0.19032877952363814,
    4: -0.13634880999637522,
    5: -0.11064712866845028,
    6: -0.0964617033065931,
    7: -0.08726032489412416,
    8: -0.08047534387997635,
}

# Per-cycle (mean, jackknife sigma) of the noisy-n10 config, frozen from
# one run with 200 initial states at seed 7 (the workload uses 20 states).
NOISY_REFERENCE_MEAN = {
    1: (0.8647906432271327, 0.08319791284955144),
    2: (1.5977966817682518, 0.10137453177343984),
    3: (2.1414551686611074, 0.11286370036686938),
    4: (2.556267020221047, 0.12120457770943054),
    5: (2.9993972226779473, 0.12685959649791875),
}

NORM_TOL = 1e-10
KURTOSIS_TOL = 1e-9
SKEWNESS_TOL = 1e-12
Z_LIMIT = 5.0

WORKLOADS = {
    "exact-n14": {
        "mode": "exact",
        "n_qubits": 14,
        "cycles": 7,
        "mu": [0.0, 0.25, 0.5, 1.0, "inf"],
        "analysis": {
            "collapse_gammas": [0.3, 0.4, 0.5, 0.6, 0.65, 0.7, 0.8],
            "collapse_t_min": 4,
            "collapse_knots": 6,
        },
    },
    "sampled-n12": {
        "mode": "sampled",
        "n_qubits": 12,
        "cycles": 6,
        "mu": [0.0],
        "initial_states": 1000,
        "shots_per_state": 100,
        "postselect": "number_only",
    },
    "noisy-n10": {
        "mode": "noisy-sampled",
        "n_qubits": 10,
        "cycles": 5,
        "mu": [0.5],
        "initial_states": 20,
        "shots_per_state": 100,
        "postselect": "causal",
        "noise": {
            "t1_cycles": 20,
            "e0": 0.01,
            "e1": 0.02,
            "angle_jitter_sd": 0.02,
            "dephasing_sd": 0.05,
        },
    },
}

MEAN_REFERENCES = {"noisy-n10": NOISY_REFERENCE_MEAN}


def make_config(workload: str, seed: int) -> dict:
    """The `spinfcs run` config of a workload; exact mode ignores the seed."""
    return {"theta": THETA, "phi": PHI, **WORKLOADS[workload], "seed": seed}


def mirror_columns(n_qubits: int) -> int:
    """Basis columns `transfer_tensor` evolves with mirror reduction: every
    word with a >= b ones in the left and right halves."""
    half = n_qubits // 2
    return sum(
        math.comb(half, a) * math.comb(half, b)
        for a in range(half + 1)
        for b in range(a + 1)
    )


def nominal_work(config: dict) -> int:
    """Work fixed by the inputs: column-cycles in exact mode, shots (or
    trajectories) summed over every cycle count in the sampled modes."""
    if config["mode"] == "exact":
        return mirror_columns(config["n_qubits"]) * config["cycles"]
    per_mu = config["initial_states"] * config["shots_per_state"] * config["cycles"]
    return per_mu * len(config["mu"])


def operations(config: dict) -> list[tuple[str, int]]:
    """(mu tag, cycle) of every distribution the run must produce."""
    return [
        (_mu_tag(mu), t)
        for mu in config["mu"]
        for t in range(1, config["cycles"] + 1)
    ]


def _mu_tag(mu) -> str:
    return "inf" if mu == "inf" else repr(float(mu))


def _read_csv(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_outputs(config: dict, out_dir: str, mean_reference=None) -> dict:
    """Check every (mu, cycle) distribution a run wrote to `out_dir`.

    Returns {(mu tag, cycle): [problem, ...]}; an operation with any
    problem failed.  Missing or unreadable artifacts fail every operation
    of their mu.
    """
    problems = {op: [] for op in operations(config)}
    exact = config["mode"] == "exact"
    for tag in dict.fromkeys(tag for tag, _ in problems):
        try:
            dist = _read_csv(os.path.join(out_dir, f"distributions_mu{tag}.csv"))
            moments = {
                int(row["cycle"]): row
                for row in _read_csv(os.path.join(out_dir, f"moments_mu{tag}.csv"))
            }
        except (OSError, KeyError, ValueError) as exc:
            for (mu, t), found in problems.items():
                if mu == tag:
                    found.append(f"unreadable artifacts: {exc}")
            continue
        for (mu, t), found in problems.items():
            if mu != tag:
                continue
            rows = [r for r in dist if int(r["cycle"]) == t]
            mass = [(int(r["M"]), float(r["probability"])) for r in rows]
            total = sum(p for _, p in mass)
            if not rows or abs(total - 1.0) > NORM_TOL:
                found.append(f"mass sums to {total!r}")
            outside = sum(p for m, p in mass if abs(m) > 2 * t)
            if outside != 0.0:
                found.append(f"mass {outside!r} outside |M| <= {2 * t}")
            if t not in moments:
                found.append("no moments row")
                continue
            found.extend(_moment_problems(moments[t], t, tag, exact, mean_reference))
    return problems


def _moment_problems(row, t, tag, exact, mean_reference) -> list[str]:
    found = []
    value = {k: float(row[k]) for k in ("mean", "skew", "kurt")}
    sigma = {k: float(row[f"sigma_{k}"]) for k in ("mean", "kurt")}
    if tag == "0.0" and exact:
        if not abs(value["kurt"] - REFERENCE_KURTOSIS[t]) <= KURTOSIS_TOL:
            found.append(f"kurtosis {value['kurt']!r} != {REFERENCE_KURTOSIS[t]!r}")
        if not abs(value["skew"]) <= SKEWNESS_TOL:
            found.append(f"mu=0 skewness {value['skew']!r}")
    elif tag == "0.0":
        for name, ref in (("kurt", REFERENCE_KURTOSIS[t]), ("mean", 0.0)):
            if not abs(value[name] - ref) <= Z_LIMIT * sigma[name]:
                found.append(
                    f"{name} {value[name]!r} is not within {Z_LIMIT} sigma "
                    f"({sigma[name]!r}) of {ref!r}"
                )
    if mean_reference is not None:
        ref, ref_sigma = mean_reference[t]
        limit = Z_LIMIT * math.hypot(sigma["mean"], ref_sigma)
        if not abs(value["mean"] - ref) <= limit:
            found.append(f"mean {value['mean']!r} is not within {limit!r} of {ref!r}")
    return found
