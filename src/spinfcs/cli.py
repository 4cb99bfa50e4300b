"""Config-driven batch front-end.

Subcommands:
    run      execute an experiment from a JSON config, write CSV artifacts
    analyze  recompute statistics from stored distribution tables
    oracle   print the closed-form cycle-1/cycle-2 moment values

Artifacts are deterministic: rerunning the same config (and seed) gives
byte-identical CSVs regardless of --threads.  Floats are written as their
shortest round-trip decimal.  The output directory comes from --out, else
the SPINFCS_OUT environment variable, else ./spinfcs_out.
"""

import argparse
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
    DEFAULT_SITE_CAP,
    ImbalanceEnsemble,
    distribution_from_tensor,
    transfer_tensor,
)
from .errors import ConfigError, EnumerationCapError, SchemaError
from .gates import FSimParams, LayerOrder, PhaseConvention
from .noise import NoiseConfig

DIST_HEADER = "cycle,M,probability"
MOMENT_HEADER = (
    "cycle,mean,var,skew,kurt,sigma_mean,sigma_var,sigma_skew,sigma_kurt"
)


def _fmt(x) -> str:
    """Shortest round-trip decimal for floats, plain digits for ints."""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def _is_a(value, types) -> bool:
    """isinstance, except that a JSON boolean is not a number (bool is an
    int subclass)."""
    types = types if isinstance(types, tuple) else (types,)
    is_bool = isinstance(value, bool)
    return isinstance(value, types) and (bool in types or not is_bool)


def _require(cfg: dict, key: str, types, default=None, required=False):
    """cfg[key] checked against `types`; a dotted key ('noise.e0') names a
    value of a sub-table and is looked up by its last part."""
    name = key.rpartition(".")[2]
    if name not in cfg:
        if required:
            raise ConfigError(f"config key '{key}' is required")
        return default
    value = cfg[name]
    if not _is_a(value, types):
        raise ConfigError(
            f"config key '{key}': expected {types}, got {type(value).__name__}"
        )
    return value


def _parse_mu_list(raw) -> list[float]:
    if not isinstance(raw, list):
        raw = [raw]
    out = []
    for v in raw:
        if isinstance(v, str):
            if v != "inf":
                raise ConfigError(f"config key 'mu': unknown value {v!r}")
            out.append(math.inf)
        elif _is_a(v, (int, float)):
            if v < 0:
                raise ConfigError(f"config key 'mu': must be >= 0, got {v}")
            out.append(float(v))
        else:
            raise ConfigError("config key 'mu': expected number or \"inf\"")
    if not out:
        raise ConfigError("config key 'mu': empty list")
    return out


def _parse_config(cfg: dict) -> dict:
    if not isinstance(cfg, dict):
        raise ConfigError("top-level config must be a JSON object")
    mode = _require(cfg, "mode", str, required=True)
    if mode not in ("exact", "sampled", "noisy-sampled"):
        raise ConfigError(f"config key 'mode': unknown mode {mode!r}")
    theta = _require(cfg, "theta", (int, float), required=True)
    phi = _require(cfg, "phi", (int, float), required=True)
    convention = _require(cfg, "convention", str, default="tail")
    if convention not in ("tail", "split"):
        raise ConfigError(
            f"config key 'convention': expected 'tail' or 'split', got {convention!r}"
        )
    layer_order = _require(cfg, "layer_order", str, default="even_first")
    if layer_order not in ("even_first", "odd_first"):
        raise ConfigError(
            "config key 'layer_order': expected 'even_first' or 'odd_first', "
            f"got {layer_order!r}"
        )
    cycles = _require(cfg, "cycles", int, required=True)
    if cycles < 0:
        raise ConfigError(f"config key 'cycles': must be >= 0, got {cycles}")
    n_qubits = _require(cfg, "n_qubits", int, default=max(2, 2 * cycles))
    if n_qubits < 2 or n_qubits % 2:
        raise ConfigError(
            f"config key 'n_qubits': must be even and >= 2, got {n_qubits}"
        )
    mus = _parse_mu_list(_require(cfg, "mu", (int, float, str, list), required=True))
    parsed = {
        "mode": mode,
        "theta": float(theta),
        "phi": float(phi),
        "convention": convention,
        "layer_order": layer_order,
        "cycles": cycles,
        "n_qubits": n_qubits,
        "mu": mus,
        "seed": _require(cfg, "seed", int, default=0),
        "initial_states": _require(cfg, "initial_states", int, default=100),
        "shots_per_state": _require(cfg, "shots_per_state", int, default=1000),
        "relabel": _require(cfg, "relabel", bool, default=True),
        "postselect": _require(cfg, "postselect", str, default="number_only"),
        "cap_sites": _require(cfg, "cap_sites", int, default=DEFAULT_SITE_CAP),
    }
    if parsed["postselect"] not in ("none", "number_only", "causal"):
        raise ConfigError(
            f"config key 'postselect': unknown mode {parsed['postselect']!r}"
        )
    noise_cfg = _require(cfg, "noise", dict, default=None)
    if mode == "noisy-sampled":
        noise_cfg = noise_cfg or {}
        known = {"t1_cycles", "e0", "e1", "angle_jitter_sd", "dephasing_sd"}
        for key in noise_cfg:
            if key not in known:
                raise ConfigError(f"config key 'noise.{key}': unknown key")
        number = (int, float)
        t1 = _require(noise_cfg, "noise.t1_cycles", (*number, str), default=math.inf)
        if isinstance(t1, str):
            if t1 != "inf":
                raise ConfigError(f"config key 'noise.t1_cycles': bad value {t1!r}")
            t1 = math.inf
        rates = {
            key: _require(noise_cfg, f"noise.{key}", (*number, list), default=0.0)
            for key in ("e0", "e1")
        }
        for key, rate in rates.items():
            if isinstance(rate, list) and (
                len(rate) != n_qubits or not all(_is_a(r, number) for r in rate)
            ):
                raise ConfigError(
                    f"config key 'noise.{key}': expected a number or a list of "
                    f"{n_qubits} per-qubit numbers"
                )
        widths = {
            key: _require(noise_cfg, f"noise.{key}", number, default=0.0)
            for key in ("angle_jitter_sd", "dephasing_sd")
        }
        try:
            parsed["noise"] = NoiseConfig(t1_cycles=t1, **rates, **widths)
        except ValueError as exc:
            raise ConfigError(f"config key 'noise': {exc}") from exc
    else:
        parsed["noise"] = None
    parsed["analysis"] = _parse_analysis(_require(cfg, "analysis", dict, default=None))
    return parsed


def _parse_analysis(raw) -> dict | None:
    if raw is None:
        return None
    if not isinstance(raw, dict):
        raise ConfigError("config key 'analysis': expected an object")
    out = {}
    if "exponent_window" in raw:
        win = raw["exponent_window"]
        if (
            not isinstance(win, list)
            or len(win) != 2
            or not all(_is_a(v, int) for v in win)
        ):
            raise ConfigError(
                "config key 'analysis.exponent_window': expected [t_min, t_max]"
            )
        out["exponent_window"] = (win[0], win[1])
    if "collapse_gammas" in raw:
        gam = raw["collapse_gammas"]
        if not isinstance(gam, list) or not all(_is_a(v, (int, float)) for v in gam):
            raise ConfigError(
                "config key 'analysis.collapse_gammas': expected a number list"
            )
        out["collapse_gammas"] = [float(g) for g in gam]
        for key, default in (("collapse_t_min", 8), ("collapse_knots", 12)):
            out[key] = _require(raw, f"analysis.{key}", int, default=default)
    known = {
        "exponent_window",
        "collapse_gammas",
        "collapse_t_min",
        "collapse_knots",
    }
    for key in raw:
        if key not in known:
            raise ConfigError(f"config key 'analysis.{key}': unknown key")
    return out


def _mu_tag(mu: float) -> str:
    return "inf" if math.isinf(mu) else repr(float(mu))


def _write_lines(path: str, lines: list[str]) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_distributions(path, per_cycle):
    lines = [DIST_HEADER]
    for t in sorted(per_cycle):
        values, probs = per_cycle[t]
        for m, p in zip(values, probs):
            lines.append(f"{int(t)},{int(m)},{_fmt(p)}")
    _write_lines(path, lines)


def _write_moments(path, report: stats.MomentReport) -> None:
    lines = [MOMENT_HEADER]
    for t, row, sigmas in zip(report.cycles, report.rows, report.sigmas):
        lines.append(",".join([_fmt(t), *map(_fmt, row), *map(_fmt, sigmas)]))
    _write_lines(path, lines)


def _run(parsed, out_dir, threads):
    """Distributions and moments CSVs of every mu; returns the paths written
    and the moment report of each mu."""
    n, cycles = parsed["n_qubits"], parsed["cycles"]
    params = FSimParams(
        parsed["theta"], parsed["phi"], PhaseConvention(parsed["convention"])
    )
    order = LayerOrder(parsed["layer_order"])
    if parsed["mode"] == "exact":
        if n > parsed["cap_sites"]:
            raise EnumerationCapError(
                f"exact mode on {n} sites exceeds the cap "
                f"({parsed['cap_sites']}); switch \"mode\" to \"sampled\""
            )
        tensor = transfer_tensor(n, cycles, params, order, threads=threads)

        def per_mu(ens):
            dists = [
                distribution_from_tensor(tensor, t, ens) for t in range(cycles + 1)
            ]
            per_cycle = {d.cycles: (d.values, d.probabilities) for d in dists}
            return per_cycle, stats.MomentReport.from_distributions(dists[1:])

    else:
        sample = sampler.SampleConfig(
            n_initial_states=parsed["initial_states"],
            shots_per_state=parsed["shots_per_state"],
            seed=parsed["seed"],
            relabel_enabled=parsed["relabel"],
        )

        def per_mu(ens):
            runs = [
                sampler.run_sampled(
                    ens,
                    ChainConfig(n, t, params, order),
                    sample,
                    noise=parsed["noise"],
                    postselect_mode=parsed["postselect"],
                    threads=threads,
                )
                for t in range(1, cycles + 1)
            ]
            per_cycle = {
                run.cycles: (run.grid, run.per_state_distributions().mean(axis=0))
                for run in runs
            }
            return per_cycle, sampler.moment_report(runs)

    outputs = []
    series = {}
    for mu in parsed["mu"]:
        per_cycle, report = per_mu(ImbalanceEnsemble(mu, n))
        tag = _mu_tag(mu)
        dist_path = os.path.join(out_dir, f"distributions_mu{tag}.csv")
        _write_distributions(dist_path, per_cycle)
        mom_path = os.path.join(out_dir, f"moments_mu{tag}.csv")
        _write_moments(mom_path, report)
        outputs += [dist_path, mom_path]
        series[mu] = report
    return outputs, series


def _write_analysis(parsed, series, out_dir):
    """Exponent fits and the collapse scan from per-mu moment reports."""
    analysis = parsed["analysis"]
    outputs = []
    if analysis is None:
        return outputs
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
            fit = stats.fit_dynamical_exponent(
                report.cycles[mask],
                values[mask],
                sigmas[mask] if weighted else None,
                window=analysis["exponent_window"],
            )
            lines.append(
                ",".join(
                    [
                        _mu_tag(mu),
                        _fmt(fit.z),
                        _fmt(fit.sigma_z),
                        str(fit.t_min),
                        str(fit.t_max),
                        str(fit.n_points),
                    ]
                )
            )
        path = os.path.join(out_dir, "exponent_fit.csv")
        _write_lines(path, lines)
        outputs.append(path)
    if "collapse_gammas" in analysis:
        finite = [mu for mu in series if not math.isinf(mu)]
        if len(finite) < 2:
            raise ConfigError(
                "config key 'analysis.collapse_gammas': needs >= 2 finite mu values"
            )
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
        path = os.path.join(out_dir, "collapse_scan.csv")
        _write_lines(path, lines)
        outputs.append(path)
    return outputs


def _resolve_out(arg_out) -> str:
    return arg_out or os.environ.get("SPINFCS_OUT") or "spinfcs_out"


def cmd_run(args) -> int:
    t_start = time.time()
    try:
        with open(args.config) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1
    try:
        parsed = _parse_config(raw)
        if args.seed is not None:
            parsed["seed"] = args.seed
        out_dir = _resolve_out(args.out)
        os.makedirs(out_dir, exist_ok=True)
        outputs, series = _run(parsed, out_dir, args.threads)
        outputs.extend(_write_analysis(parsed, series, out_dir))
    except (ConfigError, EnumerationCapError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    manifest = {
        "version": __version__,
        "mode": parsed["mode"],
        "seed": parsed["seed"],
        "threads": args.threads,
        "wall_time_s": round(time.time() - t_start, 3),
        "config": {k: v for k, v in raw.items()},
        "outputs": sorted(os.path.basename(p) for p in outputs),
    }
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, default=str)
        fh.write("\n")
    print(f"wrote {len(outputs)} artifact(s) to {out_dir}")
    return 0


def _read_distribution_csv(path):
    """Parse one distributions CSV into {cycle: (values, probabilities)}."""
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    if not lines or lines[0] != DIST_HEADER:
        got = lines[0] if lines else "<empty>"
        raise SchemaError(
            f"{os.path.basename(path)}: expected header '{DIST_HEADER}', got '{got}'"
        )
    columns = (
        ("cycle", int, "an integer"),
        ("M", int, "an integer"),
        ("probability", float, "a float"),
    )
    rows = {}
    for i, line in enumerate(lines[1:], start=2):
        where = f"{os.path.basename(path)}:{i}"
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
        rows.setdefault(t, []).append((m, p))
    per_cycle = {}
    for t, pairs in rows.items():
        pairs.sort()
        values = np.array([m for m, _ in pairs], dtype=np.int64)
        probs = np.array([p for _, p in pairs])
        per_cycle[t] = (values, probs)
    return per_cycle


def _symmetric_grid(values, probs):
    """CSV rows padded with zero mass onto a grid symmetric about zero."""
    top = int(max(values.max(), -values.min(), 2))
    grid = np.arange(-top, top + 2, 2)
    padded = np.zeros(grid.size)
    for m, p in zip(values, probs):
        padded[(int(m) + top) // 2] = p
    return grid.astype(float), padded


def cmd_analyze(args) -> int:
    try:
        with open(args.config) as fh:
            raw = json.load(fh)
        if isinstance(raw, dict) and "analysis" in raw:
            raw = raw["analysis"]  # accept a full run config too
        analysis = _parse_analysis(raw)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read analysis config: {exc}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    paths = sorted(glob.glob(os.path.join(args.input, "distributions_mu*.csv")))
    if not paths:
        print(
            f"error: no distributions_mu*.csv files under {args.input}",
            file=sys.stderr,
        )
        return 1
    out_dir = _resolve_out(args.out)
    os.makedirs(out_dir, exist_ok=True)
    outputs = []
    series = {}
    try:
        for path in paths:
            tag = os.path.basename(path)[len("distributions_mu") : -len(".csv")]
            mu = math.inf if tag == "inf" else float(tag)
            per_cycle = _read_distribution_csv(path)
            cycles = sorted(t for t in per_cycle if t >= 1)
            rows = [
                stats.moment_row(_symmetric_grid(*per_cycle[t])) for t in cycles
            ]
            report = stats.MomentReport(cycles, rows)
            series[mu] = report
            mom_path = os.path.join(out_dir, f"moments_mu{tag}.csv")
            _write_moments(mom_path, report)
            outputs.append(mom_path)
        parsed = {"analysis": analysis}
        outputs.extend(_write_analysis(parsed, series, out_dir))
    except (SchemaError, ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {len(outputs)} artifact(s) to {out_dir}")
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
        print(f"error: {exc}", file=sys.stderr)
        return 1
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
