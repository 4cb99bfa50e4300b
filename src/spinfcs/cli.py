"""Config-driven batch front-end.

Subcommands:
    run      execute an experiment from a JSON config, write CSV artifacts
    analyze  recompute statistics from stored distribution tables
    oracle   print the closed-form cycle-1/cycle-2 moment values

Artifacts are deterministic: rerunning the same config (and seed) gives
byte-identical CSVs regardless of --threads.  Floats are written as their
shortest round-trip decimal.  The output directory comes from --out, else
the SPINFCS_OUT environment variable, else ./spinfcs_out.  Every file is a
(name, lines) table, written by `_write_tables` once all are computed, so
a command that fails leaves no file and no directory.
"""

import argparse
import contextlib
import dataclasses
import glob
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__, reference, sampler, stats
from .circuit import ChainConfig
from .ensemble import (
    NORM_TOL,
    ImbalanceEnsemble,
    check_memory,
    distribution_from_tensor,
    lightcone_reduce,
    transfer_tensor,
)
from .errors import ConfigError, SchemaError
from .gates import FSimParams, LayerOrder, PhaseConvention
from .noise import POSTSELECT_MODES, NoiseConfig

DIST_HEADER = "cycle,M,probability"
MOMENT_HEADER = (
    "cycle,mean,var,skew,kurt,sigma_mean,sigma_var,sigma_skew,sigma_kurt"
)


def _fmt(x) -> str:
    """Shortest round-trip decimal for floats, plain digits for ints."""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


NUMBER = (int, float)
RUN_KEYS = {
    "mode", "theta", "phi", "convention", "layer_order", "cycles", "n_qubits",
    "mu", "seed", "initial_states", "shots_per_state", "relabel", "postselect",
    "noise", "analysis",
}
NOISE_KEYS = {"t1_cycles", "e0", "e1", "angle_jitter_sd", "dephasing_sd"}
ANALYSIS_KEYS = {
    "exponent_window", "collapse_gammas", "collapse_t_min", "collapse_knots"
}


def _check(ok, key: str, message: str) -> None:
    """Refuse config key `key` with `message` unless `ok`."""
    if not ok:
        raise ConfigError(f"config key '{key}': {message}")


def _is_a(value, types) -> bool:
    """isinstance, except that a JSON boolean (a Python int) is not a number."""
    return isinstance(value, types) and (types is bool or not isinstance(value, bool))


def _table(raw, name: str, known: set) -> None:
    """Refuse `raw` as the config table `name` ('' at the top level) unless
    it is a JSON object whose every key is in `known`."""
    if not name and not isinstance(raw, dict):
        raise ConfigError("top-level config must be a JSON object")
    _check(isinstance(raw, dict), name, "expected an object")
    for key in raw:
        _check(key in known, f"{name}.{key}" if name else key, "unknown key")


def _require(cfg: dict, key: str, types, default=None, required=False):
    """cfg[key] checked against `types`; a dotted key ('noise.e0') names a
    value of a sub-table and is looked up by its last part."""
    name = key.rpartition(".")[2]
    if name not in cfg:
        _check(not required, key, "required")
        return default
    value = cfg[name]
    _check(_is_a(value, types), key, f"expected {types}, got {type(value).__name__}")
    return value


def _choice(cfg: dict, key: str, choices, default=None) -> str:
    """cfg[key], one of the strings `choices`; required without a default."""
    value = _require(cfg, key, str, default, required=default is None)
    _check(value in choices, key, f"expected one of {choices}, got {value!r}")
    return value


def _number_or_inf(value, key: str):
    """A number, or the string "inf" for infinity."""
    ok = value == "inf" or _is_a(value, NUMBER)
    _check(ok, key, f'expected a number or "inf", got {value!r}')
    return math.inf if value == "inf" else value


def _number_list(value, key: str, length=None, noun="numbers", kind=NUMBER):
    """`value` as a list of `kind` values, of `length` entries if given."""
    ok = isinstance(value, list) and all(_is_a(v, kind) for v in value)
    size = "" if length is None else f"{length} "
    _check(ok and length in (None, len(value)), key, f"expected a list of {size}{noun}")
    return value


@contextlib.contextmanager
def _refused_as(key: str):
    """Report the ValueError of a library check as a refusal of `key`, and
    its OverflowError: a config integer past the float range, compared
    with float cycles."""
    try:
        yield
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"config key '{key}': {exc}") from exc


def _parse_config(cfg) -> dict:
    """Check a `spinfcs run` config and build the library objects of its
    run once: the ChainConfig (in exact mode reduced to the light cone of
    the center cut), and the SampleConfig of the sampled modes and the
    NoiseConfig of noisy mode (None where unused).  In every mode, a
    `ChainConfig.window` that `ensemble.check_memory` refuses is a refusal
    of `cycles`; in noisy mode, one it refuses with a batch's per-shot
    arrays (`sampler.shot_bytes`) is a refusal of `shots_per_state`, or of
    `cycles` if it refuses them at one shot a state, and in
    sampled mode one it refuses with the per-state arrays
    (`sampler.state_bytes`) a refusal of `initial_states`."""
    _table(cfg, "", RUN_KEYS)
    mode = _choice(cfg, "mode", ("exact", "sampled", "noisy-sampled"))
    angles = [_require(cfg, key, NUMBER, required=True) for key in ("theta", "phi")]
    for key, angle in zip(("theta", "phi"), angles):
        _check(math.isfinite(angle), key, f"expected a finite angle, got {angle}")
    convention = _choice(cfg, "convention", ("tail", "split"), "tail")
    order = _choice(cfg, "layer_order", ("even_first", "odd_first"), "even_first")
    cycles = _require(cfg, "cycles", int, required=True)
    _check(cycles >= 0, "cycles", f"must be >= 0, got {cycles}")
    n_qubits = _require(cfg, "n_qubits", int, default=max(2, 2 * cycles))
    even = n_qubits >= 2 and n_qubits % 2 == 0
    _check(even, "n_qubits", f"must be even and >= 2, got {n_qubits}")
    raw_mu = _require(cfg, "mu", (*NUMBER, str, list), required=True)
    mus = raw_mu if isinstance(raw_mu, list) else [raw_mu]
    # + 0.0 turns -0.0 into 0.0, whose tag names the output files
    mus = [float(_number_or_inf(mu, "mu")) + 0.0 for mu in mus]
    ok = mus and all(mu >= 0 for mu in mus)
    _check(ok, "mu", f"expected values >= 0, got {raw_mu!r}")
    _check(len(set(mus)) == len(mus), "mu", f"lists a value twice: {raw_mu!r}")
    seed = _require(cfg, "seed", int, default=0)
    _check(0 <= seed < 2**64, "seed", f"must be in 0 .. 2^64 - 1, got {seed}")
    states = _require(cfg, "initial_states", int, default=100)
    shots = _require(cfg, "shots_per_state", int, default=1000)
    relabel = _require(cfg, "relabel", bool, default=True)
    postselect = _choice(cfg, "postselect", POSTSELECT_MODES, "number_only")
    noise = _require(cfg, "noise", dict)
    noisy = mode == "noisy-sampled"
    _check(noisy or noise is None, "noise", "only noisy-sampled mode takes it")
    analysis = _parse_analysis(_require(cfg, "analysis", dict))
    _check_analysis(analysis, {mu: range(1, cycles + 1) for mu in mus})
    params = FSimParams(*angles, PhaseConvention(convention))
    chain = ChainConfig(n_qubits, cycles, params, LayerOrder(order))
    sample = None
    if mode == "exact":
        # sites outside the light cone of the center cut do not move it
        chain = lightcone_reduce(chain)
    else:
        _check(states >= 1, "initial_states", f"must be >= 1, got {states}")
        _check(shots >= 1, "shots_per_state", f"must be >= 1, got {shots}")
        sample = sampler.SampleConfig(states, shots, seed, relabel)
    lo, hi = chain.window
    with _refused_as("cycles"):  # fewer cycles, a narrower window
        check_memory(hi - lo, mode)
    noise = _parse_noise(noise or {}, n_qubits) if noisy else None
    if noisy:
        # a batch of one shot a state that cannot fit needs a narrower window
        for key, per_state in (("cycles", 1), ("shots_per_state", shots)):
            with _refused_as(key):
                held = sampler.shot_bytes(chain, per_state, noise)
                check_memory(hi - lo, mode, held)
    elif mode == "sampled":
        with _refused_as("initial_states"):  # fewer states, fewer tallies
            check_memory(hi - lo, mode, sampler.state_bytes(chain, states))
    return {
        "mode": mode,
        "chain": chain,
        "mu": mus,
        "seed": seed,
        "sample": sample,
        "noise": noise,
        "postselect": postselect,
        "analysis": analysis,
    }


def _parse_noise(raw: dict, n_qubits: int) -> NoiseConfig:
    """The NoiseConfig of a `noise` table on a chain of `n_qubits`."""
    _table(raw, "noise", NOISE_KEYS)
    t1 = _require(raw, "noise.t1_cycles", (*NUMBER, str), default=math.inf)
    rates = {}
    for key in ("e0", "e1"):
        rates[key] = _require(raw, f"noise.{key}", (*NUMBER, list), default=0.0)
        if isinstance(rates[key], list):
            _number_list(rates[key], f"noise.{key}", n_qubits, "per-qubit rates")
    widths = {
        key: _require(raw, f"noise.{key}", NUMBER, default=0.0)
        for key in ("angle_jitter_sd", "dephasing_sd")
    }
    values = {"t1_cycles": _number_or_inf(t1, "noise.t1_cycles"), **rates, **widths}
    for key, value in values.items():  # the library check, key by key
        with _refused_as(f"noise.{key}"):
            NoiseConfig(**{key: value})
    return NoiseConfig(**values)


def _parse_analysis(raw) -> dict:
    """The analysis table checked, with the collapse defaults filled in;
    null is an empty table."""
    if raw is None:
        return {}
    _table(raw, "analysis", ANALYSIS_KEYS)
    out = {}
    if "exponent_window" in raw:
        window = raw["exponent_window"]
        _number_list(window, "analysis.exponent_window", 2, "integers", int)
        message = f"lower bound {window[0]} exceeds upper bound {window[1]}"
        _check(window[0] <= window[1], "analysis.exponent_window", message)
        out["exponent_window"] = tuple(window)
    if "collapse_gammas" in raw:
        gammas = _number_list(raw["collapse_gammas"], "analysis.collapse_gammas")
        finite = all(math.isfinite(g) for g in gammas)
        _check(finite, "analysis.collapse_gammas", f"must be finite, got {gammas}")
        out["collapse_gammas"] = [float(g) for g in gammas]
        for key, default in (("collapse_t_min", 8), ("collapse_knots", 12)):
            out[key] = _require(raw, f"analysis.{key}", int, default=default)
        knots = out["collapse_knots"]
        _check(knots >= 2, "analysis.collapse_knots", f"must be >= 2, got {knots}")
    return out


def _check_analysis(analysis: dict, cycles_by_mu: dict) -> None:
    """Refuse an analysis that the cycles of each mu, {mu: cycles}, cannot
    satisfy, by the library's own refusals on stand-in values, as those
    read only the cycles, mu and gamma: `stats.fit_dynamical_exponent` of
    each mu on values t (a log-log slope of exactly 1), and, over >= 2
    finite mu, `stats.collapse_residual` on zeros, once at gamma 0 for the
    cut `collapse_t_min` (x = mu, never overflowing), then per gamma."""
    if "exponent_window" in analysis:
        window = analysis["exponent_window"]
        for mu, ts in cycles_by_mu.items():
            with _refused_as("analysis.exponent_window"), _of_mu(mu):
                stats.fit_dynamical_exponent(ts, ts, window=window)
    if "collapse_gammas" in analysis:
        finite = {mu: ts for mu, ts in cycles_by_mu.items() if not math.isinf(mu)}
        _check(len(finite) >= 2, "analysis.collapse_gammas", "needs >= 2 finite mu")
        zeros = [(mu, ts, np.zeros(len(ts))) for mu, ts in finite.items()]
        scan = [("analysis.collapse_gammas", g) for g in analysis["collapse_gammas"]]
        for key, gamma in [("analysis.collapse_t_min", 0.0), *scan]:
            with _refused_as(key):
                stats.collapse_residual(zeros, gamma, t_min=analysis["collapse_t_min"])


def _mu_tag(mu: float) -> str:
    return "inf" if math.isinf(mu) else repr(float(mu))


@contextlib.contextmanager
def _of_mu(mu: float):
    """Prefix the ValueError of a per-mu library call with its mu."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"mu={_mu_tag(mu)}: {exc}") from exc


def _distribution_lines(per_cycle) -> list[str]:
    """The distributions CSV of {cycle: (values, probabilities)}."""
    return [DIST_HEADER] + [
        f"{int(t)},{int(m)},{_fmt(p)}"
        for t in sorted(per_cycle)
        for m, p in zip(*per_cycle[t])
    ]


def _moment_lines(report: stats.MomentReport) -> list[str]:
    """The moments CSV of a moment report."""
    return [MOMENT_HEADER] + [
        ",".join(map(_fmt, [t, *row, *sigmas]))
        for t, row, sigmas in zip(report.cycles, report.rows, report.sigmas)
    ]


def _run(parsed, threads):
    """The distributions and moment report of every mu, {mu: (per_cycle,
    report)}, and, in the sampled modes, the yield and dropped-state count
    of each (mu, cycle).  Writes nothing."""
    chain = parsed["chain"]
    n, cycles = chain.n_qubits, chain.cycles
    sampling = []
    if parsed["mode"] == "exact":
        tensor = transfer_tensor(
            n, cycles, chain.params, chain.layer_order, threads=threads
        )

        def per_mu(ens):
            per_cycle = {
                t: distribution_from_tensor(tensor, t, ens) for t in range(cycles + 1)
            }
            rows = [stats.moment_row(per_cycle[t]) for t in range(1, cycles + 1)]
            return per_cycle, stats.MomentReport(range(1, cycles + 1), rows)

    else:

        def per_mu(ens):
            runs = []
            per_cycle = {}
            for t in range(1, cycles + 1):
                run = sampler.run_sampled(
                    ens,
                    dataclasses.replace(chain, cycles=t),
                    parsed["sample"],
                    noise=parsed["noise"],
                    postselect_mode=parsed["postselect"],
                    threads=threads,
                )
                # a cycle with no surviving shot stops the run before the next
                per_cycle[t] = (run.grid, run.per_state_distributions().mean(axis=0))
                runs.append(run)
            sampling.extend(
                {
                    "mu": _mu_tag(ens.mu),
                    "cycle": run.cycles,
                    "yield_fraction": run.yield_fraction(),
                    "dropped_states": len(run.dropped_states),
                }
                for run in runs
            )
            return per_cycle, sampler.moment_report(runs)

    return {mu: per_mu(ImbalanceEnsemble(mu, n)) for mu in parsed["mu"]}, sampling


def _analysis_tables(analysis, series):
    """Exponent fits and the collapse scan of an analysis table from per-mu
    moment reports, as (file name, CSV lines) pairs; writes nothing, so a
    fit or scan that fails leaves no file behind."""
    tables = []
    if "exponent_window" in analysis:
        lines = ["mu,z,sigma_z,t_min,t_max,n_points"]
        for mu in sorted(series, key=lambda m: (math.isinf(m), m)):
            report = series[mu]
            # the mu=0 mean vanishes by symmetry: fit the variance there
            if mu == 0.0:
                values, sigmas = report.variance, report.sigma_variance
            else:
                values, sigmas = report.mean, report.sigma_mean
            mask = values > 0
            weighted = bool(np.all(sigmas[mask] > 0))
            with _of_mu(mu):
                fit = stats.fit_dynamical_exponent(
                    report.cycles[mask],
                    values[mask],
                    sigmas[mask] if weighted else None,
                    window=analysis["exponent_window"],
                )
            row = (fit.z, fit.sigma_z, fit.t_min, fit.t_max, fit.n_points)
            lines.append(",".join([_mu_tag(mu), *map(_fmt, row)]))
        tables.append(("exponent_fit.csv", lines))
    if "collapse_gammas" in analysis:
        finite = [mu for mu in series if not math.isinf(mu)]
        triples = [
            (mu, series[mu].cycles, series[mu].skewness) for mu in sorted(finite)
        ]
        gammas, residuals = stats.collapse_scan(
            triples,
            analysis["collapse_gammas"],
            t_min=analysis["collapse_t_min"],
            n_knots=analysis["collapse_knots"],
        )
        lines = ["gamma,residual"]
        for g, r in zip(gammas, residuals):
            lines.append(f"{_fmt(g)},{_fmt(r)}")
        tables.append(("collapse_scan.csv", lines))
    return tables


def _write_tables(out_dir, tables) -> None:
    """Create `out_dir` and write each (file name, lines) pair under it, in
    order: every file of `run` and `analyze` goes through here."""
    os.makedirs(out_dir, exist_ok=True)
    for name, lines in tables:
        with open(os.path.join(out_dir, name), "w", newline="") as fh:
            fh.write("\n".join(lines) + "\n")


def _error(message) -> int:
    """Print `message` as an error; returns the exit status 1."""
    print(f"error: {message}", file=sys.stderr)
    return 1


def _resolve_out(arg_out) -> str:
    return arg_out or os.environ.get("SPINFCS_OUT") or "spinfcs_out"


def cmd_run(args) -> int:
    t_start = time.time()
    try:
        with open(args.config) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        return _error(f"cannot read config: {exc}")
    try:
        cfg = raw
        if args.seed is not None and isinstance(raw, dict):
            cfg = {**raw, "seed": args.seed}
        parsed = _parse_config(cfg)
        results, sampling = _run(parsed, args.threads)
        tables = []
        for mu, (per_cycle, report) in results.items():
            tag = _mu_tag(mu)
            tables += [
                (f"distributions_mu{tag}.csv", _distribution_lines(per_cycle)),
                (f"moments_mu{tag}.csv", _moment_lines(report)),
            ]
        series = {mu: report for mu, (_, report) in results.items()}
        tables += _analysis_tables(parsed["analysis"], series)
        manifest = {
            "version": __version__,
            "mode": parsed["mode"],
            "seed": parsed["seed"],
            "threads": args.threads,
            "wall_time_s": round(time.time() - t_start, 3),
            "config": {k: v for k, v in raw.items()},
            "outputs": sorted(name for name, _ in tables),
        }
        if sampling:
            manifest["sampling"] = sampling
        # everything is computed: a run that fails writes nothing, not even
        # its directory, and the manifest is written last
        out_dir = _resolve_out(args.out)
        text = json.dumps(manifest, indent=2, default=str)
        _write_tables(out_dir, [*tables, ("manifest.json", [text])])
    except ValueError as exc:
        return _error(exc)
    except OSError as exc:
        return _error(f"cannot write output: {exc}")
    print(f"wrote {len(tables)} artifact(s) to {out_dir}")
    return 0


def _read_distribution_csv(path):
    """Parse one distributions CSV into {cycle: (values, probabilities)}:
    per cycle, distinct even M and non-negative mass that sums to 1."""
    name = os.path.basename(path)
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    if not lines or lines[0] != DIST_HEADER:
        got = lines[0] if lines else "<empty>"
        raise SchemaError(f"{name}: expected header '{DIST_HEADER}', got '{got}'")
    columns = (
        ("cycle", int, "an integer"),
        ("M", int, "an integer"),
        ("probability", float, "a float"),
    )
    rows = {}
    for i, line in enumerate(lines[1:], start=2):
        where = f"{name}:{i}"
        parts = line.split(",")
        if len(parts) != 3:
            raise SchemaError(f"{where}: expected 3 columns, got {len(parts)}")
        values = []
        for text, (column, kind, noun) in zip(parts, columns):
            try:
                values.append(kind(text))
            except ValueError:
                raise SchemaError(f"{where}: column '{column}' is not {noun}") from None
        t, m, p = values
        # cycles and M go into int64 arrays, and -M into M's grid too
        for column, ok in (("cycle", 0 <= t < 2**63), ("M", abs(m) < 2**63)):
            if not ok:
                raise SchemaError(f"{where}: column '{column}' is out of range")
        rows.setdefault(t, []).append((m, p))
    per_cycle = {}
    for t, pairs in rows.items():
        pairs.sort()
        values = np.array([m for m, _ in pairs], dtype=np.int64)
        probs = np.array([p for _, p in pairs])
        total = float(probs.sum())
        for bad, problem in (
            (values % 2 != 0, "odd M"),
            (np.diff(values, prepend=values[0] - 1) == 0, "repeated M"),
            (probs < 0.0, "negative mass at M"),
        ):
            if bad.any():
                raise SchemaError(f"{name}: cycle {t}: {problem} {values[bad][0]}")
        if not abs(total - 1.0) <= NORM_TOL:
            raise SchemaError(f"{name}: cycle {t}: mass sums to {total!r}, not 1")
        per_cycle[t] = (values, probs)
    return per_cycle


def _symmetric_grid(values, probs):
    """CSV rows padded with zero mass onto a grid symmetric about zero: their
    M, its negatives and 0.  A zero-mass M adds exact zeros to the moment
    sums, so any wider grid gives the same bits."""
    grid = np.union1d(values, np.append(-values, 0))
    padded = np.zeros(grid.size)
    padded[np.searchsorted(grid, values)] = probs
    return grid.astype(float), padded


def cmd_analyze(args) -> int:
    try:
        with open(args.config) as fh:
            raw = json.load(fh)
        if isinstance(raw, dict) and "mode" in raw:
            raw = raw.get("analysis")  # a run config: its analysis table, if any
        analysis = _parse_analysis(raw)
    except (OSError, json.JSONDecodeError) as exc:
        return _error(f"cannot read analysis config: {exc}")
    except ConfigError as exc:
        return _error(exc)
    out_dir = _resolve_out(args.out)
    if os.path.realpath(out_dir) == os.path.realpath(args.input):
        # the moments CSVs written here would replace the run's, sigmas and all
        return _error(f"--out {out_dir} is the --input directory; give another --out")
    paths = sorted(glob.glob(os.path.join(args.input, "distributions_mu*.csv")))
    if not paths:
        return _error(f"no distributions_mu*.csv files under {args.input}")
    reports = {}  # file tag -> (mu, moment report)
    try:
        for path in paths:
            name = os.path.basename(path)
            tag = name[len("distributions_mu") : -len(".csv")]
            try:
                mu = float(tag)
            except ValueError:
                mu = math.nan
            if not mu >= 0.0:  # the mu values that `run` takes
                raise SchemaError(f"{name}: mu {tag!r} is not >= 0 or inf")
            if any(mu == other for other, _ in reports.values()):
                raise SchemaError(f"{name}: mu {tag!r} repeats another file's mu")
            per_cycle = _read_distribution_csv(path)
            cycles = sorted(t for t in per_cycle if t >= 1)
            rows = [
                stats.moment_row(_symmetric_grid(*per_cycle[t])) for t in cycles
            ]
            reports[tag] = mu, stats.MomentReport(cycles, rows)
        series = dict(reports.values())
        _check_analysis(analysis, {mu: report.cycles for mu, report in series.items()})
        tables = [
            (f"moments_mu{tag}.csv", _moment_lines(report))
            for tag, (_, report) in reports.items()
        ]
        tables += _analysis_tables(analysis, series)
    except (OSError, ValueError) as exc:
        return _error(exc)
    try:
        _write_tables(out_dir, tables)
    except OSError as exc:
        return _error(f"cannot write output: {exc}")
    print(f"wrote {len(tables)} artifact(s) to {out_dir}")
    return 0


def cmd_oracle(args) -> int:
    try:
        if args.cycle == 1:
            mean, var, skew, kurt = reference.cycle1_moments(args.theta, args.mu)
            payload = {
                "cycle": 1,
                "theta": args.theta,
                "mu": args.mu,
                "mean": mean,
                "variance": var,
                "skewness": skew,
                "kurtosis": kurt,
            }
        else:
            mean, var = reference.cycle2_small_mu(args.theta, args.phi, args.mu)
            payload = {
                "cycle": 2,
                "theta": args.theta,
                "phi": args.phi,
                "mu": args.mu,
                "mean_leading": mean,
                "variance_leading": var,
            }
    except ValueError as exc:
        return _error(exc)
    print(json.dumps(payload))
    return 0


def _thread_count(text: str) -> int:
    """argparse type of --threads: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinfcs",
        description="Transfer statistics of brickwork fSim chains",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment from a JSON config")
    p_run.add_argument("--config", required=True, help="JSON config file")
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.add_argument("--seed", type=int, default=None, help="override seed")
    p_run.add_argument(
        "--threads", type=_thread_count, default=1, help="worker threads (>= 1)"
    )
    p_run.set_defaults(func=cmd_run)

    p_an = sub.add_parser("analyze", help="recompute stats from stored CSVs")
    p_an.add_argument("--input", required=True, help="directory of run outputs")
    p_an.add_argument("--config", required=True, help="JSON analysis config")
    p_an.add_argument("--out", default=None, help="output directory")
    p_an.set_defaults(func=cmd_analyze)

    p_or = sub.add_parser("oracle", help="print closed-form moment values")
    p_or.add_argument("--theta", type=float, required=True)
    p_or.add_argument("--phi", type=float, default=0.0)
    p_or.add_argument("--mu", type=float, required=True)
    p_or.add_argument("--cycle", type=int, choices=(1, 2), default=1)
    p_or.set_defaults(func=cmd_oracle)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
