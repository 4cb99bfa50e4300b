import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from conftest import REFERENCE_KURTOSIS, mass_at

from spinfcs import cli, sampler
from spinfcs.circuit import ChainConfig
from spinfcs.cli import main
from spinfcs.ensemble import ImbalanceEnsemble, distribution_from_tensor
from spinfcs.errors import ConfigError
from spinfcs.gates import FSimParams, LayerOrder, PhaseConvention
from spinfcs.noise import NoiseConfig
from spinfcs.sampler import SampleConfig
from spinfcs.stats import fit_dynamical_exponent, moment_row

HEIS_THETA = 0.4 * math.pi
HEIS_PHI = 0.8 * math.pi


def write_config(path, **overrides):
    cfg = {
        "mode": "exact",
        "theta": HEIS_THETA,
        "phi": HEIS_PHI,
        "cycles": 2,
        "mu": 0.0,
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return path


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    return lines[0], [ln.split(",") for ln in lines[1:]]


class TestRunExact:
    def test_reference_kurtosis_column(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", cycles=4)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        header, rows = read_csv(out / "moments_mu0.0.csv")
        assert header == (
            "cycle,mean,var,skew,kurt,sigma_mean,sigma_var,sigma_skew,sigma_kurt"
        )
        for row in rows:
            t = int(row[0])
            assert abs(float(row[4]) - REFERENCE_KURTOSIS[t]) < 1e-9
        assert [int(r[0]) for r in rows] == [1, 2, 3, 4]

    def test_blas_thread_count_does_not_change_artifacts(self, tmp_path):
        # exact mode under OPENBLAS_NUM_THREADS 1 and 2; sampled mode, whose
        # window words run matrix products in the worker threads, under
        # both BLAS counts and --threads 1 and 2
        exact = write_config(
            tmp_path / "exact.json", n_qubits=10, cycles=5, mu=[0.0, 0.5, "inf"]
        )
        sampled = write_config(
            tmp_path / "sampled.json", mode="sampled", n_qubits=12, cycles=6,
            mu=[0.5], initial_states=300, shots_per_state=40, seed=7,
        )
        src = str(Path(__file__).resolve().parents[1] / "src")

        def artifacts(cfg, blas_threads, threads):
            out = tmp_path / f"{cfg.stem}-blas{blas_threads}-threads{threads}"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=blas_threads)
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (src, env.get("PYTHONPATH")) if p
            )
            done = subprocess.run(
                [sys.executable, "-m", "spinfcs.cli", "run",
                 "--config", str(cfg), "--out", str(out), "--threads", threads],
                env=env, capture_output=True, text=True, timeout=300,
            )
            assert done.returncode == 0, done.stderr
            return {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}

        first, *others = (artifacts(exact, blas, "1") for blas in ("1", "2"))
        assert len(first) == 6
        assert others == [first]
        first, *others = (
            artifacts(sampled, blas, threads)
            for blas in ("1", "2")
            for threads in ("1", "2")
        )
        assert len(first) == 2
        assert others == [first] * 3

    def test_broken_invariant_is_reported_as_an_error(self, tmp_path, monkeypatch, capsys):
        exact_tensor = cli.transfer_tensor

        def unnormalized(*args, **kwargs):
            tensor = exact_tensor(*args, **kwargs)
            tensor[1] *= 1.5
            return tensor

        monkeypatch.setattr(cli, "transfer_tensor", unnormalized)
        cfg = write_config(tmp_path / "cfg.json", n_qubits=4)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: transfer mass not normalized")

    def test_a_failed_exponent_fit_prints_a_plain_number(self, tmp_path, capsys):
        # on 4 sites the fitted slope over cycles 1..5 is negative
        cfg = write_config(
            tmp_path / "cfg.json", n_qubits=4, cycles=5, mu=[0, 1],
            analysis={"exponent_window": [1, 5]},
        )
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        plain = r"error: mu=0\.0: fitted slope -0\.1047862\d* is not positive\n"
        assert re.fullmatch(plain, err)  # not np.float64(...)

    def test_a_chain_shorter_than_the_light_cone_keeps_the_full_grid(self, tmp_path):
        # 4 sites at t = 3: M runs over -6..6, zero beyond the chain's 4
        cfg = write_config(
            tmp_path / "cfg.json", n_qubits=4, cycles=3, mu=[0, 0.5, "inf"],
            convention="split", layer_order="odd_first",
        )
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        for tag in ("0.0", "0.5", "inf"):
            _, rows = read_csv(out / f"distributions_mu{tag}.csv")
            last = [(int(m), p) for t, m, p in rows if t == "3"]
            assert [m for m, _ in last] == list(range(-6, 7, 2))
            assert last[0][1] == last[-1][1] == "0.0"

    @pytest.mark.parametrize("order", ["even_first", "odd_first"])
    @pytest.mark.parametrize("convention", ["tail", "split"])
    def test_exact_run_evolves_the_light_cone_only(
        self, tmp_path, monkeypatch, convention, order
    ):
        # 12 sites reduce to 6, whose center bond has the other parity
        exact_tensor = cli.transfer_tensor
        sites = []

        def spy(n_qubits, *args, **kwargs):
            sites.append(n_qubits)
            return exact_tensor(n_qubits, *args, **kwargs)

        monkeypatch.setattr(cli, "transfer_tensor", spy)
        tags = {0.0: "0.0", 0.5: "0.5", math.inf: "inf"}
        written = {}
        for n in (12, 6):
            cfg = write_config(
                tmp_path / "cfg.json", n_qubits=n, cycles=3, mu=[0.0, 0.5, "inf"],
                convention=convention, layer_order=order,
            )
            out = tmp_path / f"n{n}"
            assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
            written[n] = {
                mu: read_csv(out / f"distributions_mu{tag}.csv")[1]
                for mu, tag in tags.items()
            }
        assert sites == [6, 6]
        params = FSimParams(HEIS_THETA, HEIS_PHI, PhaseConvention(convention))
        full_chain = exact_tensor(12, 3, params, LayerOrder(order))
        for mu in tags:
            assert len(written[12][mu]) == len(written[6][mu]) == 1 + 3 + 5 + 7
            for (t, m, p), (_, _, p6) in zip(written[12][mu], written[6][mu]):
                dist = distribution_from_tensor(
                    full_chain, int(t), ImbalanceEnsemble(mu, 12)
                )
                assert abs(float(p) - mass_at(dist, int(m))) <= 1e-12
                assert abs(float(p) - float(p6)) <= 1e-12

    def test_site_cap_applies_to_the_sites_evolved(self, tmp_path, capsys):
        # 46 sites at t = 3 evolve the 6 of the light cone; at t = 11, 22
        written = {}
        for n in (46, 6):
            cfg = write_config(tmp_path / "cfg.json", n_qubits=n, cycles=3, mu=[0.0, 0.5])
            out = tmp_path / f"n{n}"
            assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
            written[n] = {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}
        assert len(written[46]) == 4
        assert written[46] == written[6]
        cfg = write_config(tmp_path / "cfg.json", n_qubits=46, cycles=11)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config key 'cycles': exact evolution of 22 sites")

    def test_negative_zero_mu_is_zero(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "cfg.json", mu=-0.0)
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert sorted(p.name for p in out.glob("*.csv")) == [
            "distributions_mu0.0.csv", "moments_mu0.0.csv"
        ]
        cfg = write_config(tmp_path / "cfg.json", mu=[0.0, -0.0])
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith("error: config key 'mu'")

    def test_zero_cycles_single_row(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", cycles=0)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        header, rows = read_csv(out / "distributions_mu0.0.csv")
        assert header == "cycle,M,probability"
        assert rows == [["0", "0", "1.0"]]

    def test_multiple_mu_and_inf(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", mu=[0.5, "inf"], cycles=2)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "distributions_mu0.5.csv").exists()
        assert (out / "distributions_muinf.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["mode"] == "exact"
        assert "moments_mu0.5.csv" in manifest["outputs"]

    def test_infeasible_size_suggests_sampled_mode(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", cycles=12)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert "sampled" in capsys.readouterr().err

    def test_bad_key_named_in_diagnostic(self, tmp_path, capsys):
        # a JSON boolean is no number, although bool is an int subclass
        for value in ("two", True):
            cfg = write_config(tmp_path / "cfg.json", cycles=value)
            out = str(tmp_path / "o")
            assert main(["run", "--config", str(cfg), "--out", out]) == 1
            assert "'cycles'" in capsys.readouterr().err

    def test_env_var_output_dir(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path / "cfg.json", cycles=1)
        target = tmp_path / "env_out"
        monkeypatch.setenv("SPINFCS_OUT", str(target))
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--config", str(cfg)]) == 0
        assert (target / "manifest.json").exists()


class TestRunSampled:
    def test_seeded_runs_are_byte_identical(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json",
            mode="sampled",
            cycles=2,
            mu=0.5,
            seed=77,
            initial_states=12,
            shots_per_state=64,
        )
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
            outs.append(out)
        for fname in ("distributions_mu0.5.csv", "moments_mu0.5.csv"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    def test_thread_count_does_not_change_artifacts(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json",
            mode="sampled",
            cycles=2,
            mu=0.5,
            seed=5,
            initial_states=8,
            shots_per_state=50,
        )
        out1, out4 = tmp_path / "t1", tmp_path / "t4"
        assert main(["run", "--config", str(cfg), "--out", str(out1), "--threads", "1"]) == 0
        assert main(["run", "--config", str(cfg), "--out", str(out4), "--threads", "4"]) == 0
        for fname in ("distributions_mu0.5.csv", "moments_mu0.5.csv"):
            assert (out1 / fname).read_bytes() == (out4 / fname).read_bytes()

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_thread_count_below_one_is_a_usage_error(self, tmp_path, capsys, threads):
        cfg = write_config(tmp_path / "cfg.json", mode="sampled", seed=5)
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "--config", str(cfg), "--out", str(out), "--threads", threads])
        assert exit_info.value.code == 2
        assert "--threads" in capsys.readouterr().err
        assert not out.exists()  # refused before any work

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json",
            mode="sampled",
            cycles=1,
            mu=0.5,
            seed=1,
            initial_states=6,
            shots_per_state=40,
        )
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        assert main(["run", "--config", str(cfg), "--out", str(out1), "--seed", "2"]) == 0
        cfg2 = write_config(
            tmp_path / "cfg2.json",
            mode="sampled",
            cycles=1,
            mu=0.5,
            seed=2,
            initial_states=6,
            shots_per_state=40,
        )
        assert main(["run", "--config", str(cfg2), "--out", str(out2)]) == 0
        assert (out1 / "distributions_mu0.5.csv").read_bytes() == (
            out2 / "distributions_mu0.5.csv"
        ).read_bytes()

    def test_noisy_mode_runs(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json",
            mode="noisy-sampled",
            cycles=1,
            mu=0.5,
            n_qubits=4,
            seed=3,
            initial_states=4,
            shots_per_state=30,
            noise={"t1_cycles": 4.0, "e0": 0.02},
            postselect="causal",
        )
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["mode"] == "noisy-sampled"

    def test_manifest_records_yield_and_dropped_states(self, tmp_path):
        # one shot per state: readout flips fail the number filter, so some
        # states keep nothing
        noise = {"e0": 0.3, "e1": 0.3}
        cfg = write_config(
            tmp_path / "cfg.json",
            mode="noisy-sampled",
            cycles=2,
            mu=[0.5, 1.0],
            n_qubits=4,
            seed=5,
            initial_states=20,
            shots_per_state=1,
            noise=noise,
        )
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        entries = manifest["sampling"]
        assert [(e["mu"], e["cycle"]) for e in entries] == [
            ("0.5", 1), ("0.5", 2), ("1.0", 1), ("1.0", 2)
        ]
        for entry in entries:
            mu, t = float(entry["mu"]), entry["cycle"]
            run = sampler.run_sampled(
                ImbalanceEnsemble(mu, 4),
                ChainConfig(4, t, FSimParams(HEIS_THETA, HEIS_PHI)),
                SampleConfig(20, 1, seed=5),
                noise=NoiseConfig(**noise),
            )
            assert entry["yield_fraction"] == run.yield_fraction()
            assert entry["dropped_states"] == len(run.dropped_states)
        assert any(entry["dropped_states"] > 0 for entry in entries)

    def test_no_surviving_shots_names_the_cycle_and_mu(self, tmp_path, capsys):
        # T1 of 0.01 cycles damps every excitation: no shot passes the filter
        cfg = write_config(
            tmp_path / "cfg.json", mode="noisy-sampled", n_qubits=4, cycles=2,
            mu="inf", initial_states=3, shots_per_state=5,
            noise={"t1_cycles": 0.01},
        )
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.endswith("error: no surviving shots in any state at t=1, mu=inf\n")

    def test_a_cycle_without_surviving_shots_stops_the_run(
        self, tmp_path, monkeypatch
    ):
        # t = 1 keeps no shot, so t = 2 is never evolved
        cycles = []
        run_sampled = sampler.run_sampled

        def spy(ens, config, *args, **kwargs):
            cycles.append(config.cycles)
            return run_sampled(ens, config, *args, **kwargs)

        monkeypatch.setattr(sampler, "run_sampled", spy)
        cfg = write_config(
            tmp_path / "cfg.json", mode="noisy-sampled", n_qubits=4, cycles=2,
            mu="inf", initial_states=3, shots_per_state=5,
            noise={"t1_cycles": 0.01},
        )
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        assert cycles == [1]

    def test_exact_manifest_has_no_sampling_entries(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert "sampling" not in json.loads((out / "manifest.json").read_text())


class TestConfigValidation:
    NOISY = dict(
        mode="noisy-sampled",
        cycles=1,
        mu=0.5,
        n_qubits=4,
        initial_states=2,
        shots_per_state=10,
        noise={"t1_cycles": 4.0},
    )

    BOOLEANS = {
        "theta": {"theta": True},
        "seed": {"seed": False},
        "noise.t1_cycles": {"noise": {"t1_cycles": True}},
        "noise.dephasing_sd": {"noise": {"dephasing_sd": False}},
        "noise.e1": {"noise": {"e1": [0.1, True, 0.1, 0.1]}},
        "analysis.exponent_window": {"analysis": {"exponent_window": [True, 2]}},
        "analysis.collapse_knots": {
            "analysis": {"collapse_gammas": [0.5], "collapse_knots": True}
        },
    }

    @pytest.mark.parametrize("key, overrides", BOOLEANS.items(), ids=list(BOOLEANS))
    def test_booleans_are_not_numbers(self, tmp_path, capsys, key, overrides):
        cfg = write_config(tmp_path / "cfg.json", **{**self.NOISY, **overrides})
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith(f"error: config key '{key}'")
        assert not (tmp_path / "o" / "manifest.json").exists()

    REFUSED = {
        "unknown-top-level-key": ("n_qubit", {"n_qubit": 40}),
        "cap-sites-is-unknown": ("cap_sites", {"cap_sites": 30}),
        "unknown-noise-key": ("noise.t1", {"noise": {"t1": 4.0}}),
        "unknown-analysis-key": (
            "analysis.collapse_knot", {"analysis": {"collapse_knot": 5}}
        ),
        "noise-in-sampled-mode": (
            "noise", {"mode": "sampled", "noise": {"t1_cycles": 4.0, "e0": 0.02}}
        ),
        "noise-in-exact-mode": ("noise", {"mode": "exact", "noise": {}}),
        "no-states": ("initial_states", {"initial_states": 0}),
        "negative-seed": ("seed", {"seed": -1}),
        "seed-past-64-bits": ("seed", {"seed": 2**64 + 5}),
        "repeated-mu": ("mu", {"mu": [0.5, "inf", 0.5]}),
        "nan-angle": ("theta", {"theta": math.nan}),
        "nan-readout-rate": ("noise.e0", {"noise": {"e0": math.nan}}),
        "nan-per-qubit-rate": (
            "noise.e1", {"noise": {"e1": [0.1, math.nan, 0.1, 0.1]}}
        ),
        "nan-jitter": ("noise.angle_jitter_sd", {"noise": {"angle_jitter_sd": math.nan}}),
        "nan-dephasing": ("noise.dephasing_sd", {"noise": {"dephasing_sd": math.nan}}),
        "infinite-dephasing": (
            "noise.dephasing_sd", {"noise": {"dephasing_sd": math.inf}}
        ),
        "collapse-over-one-mu": (
            "analysis.collapse_gammas", {"analysis": {"collapse_gammas": [0.5]}}
        ),
        # analysis keys that could only fail once the run is done (no
        # noise: every shot survives, so the run itself would succeed)
        "reversed-exponent-window": (
            "analysis.exponent_window",
            {"cycles": 4, "noise": {}, "analysis": {"exponent_window": [4, 1]}},
        ),
        "exponent-window-past-the-run": (
            "analysis.exponent_window",
            {"cycles": 4, "noise": {}, "analysis": {"exponent_window": [10, 23]}},
        ),
        "collapse-cut-past-the-run": (
            "analysis.collapse_t_min",
            {
                "cycles": 4,
                "mu": [0.3, 0.6],
                "noise": {},
                "analysis": {"collapse_gammas": [0.5], "collapse_t_min": 8},
            },
        ),
        "collapse-cut-at-the-last-cycle": (
            "analysis.collapse_t_min",
            {
                "cycles": 4,
                "mu": [0.3, 0.6],
                "noise": {},
                "analysis": {"collapse_gammas": [0.5], "collapse_t_min": 4},
            },
        ),
        "nan-collapse-gamma": (
            "analysis.collapse_gammas",
            {
                "cycles": 4,
                "mu": [0.3, 0.6],
                "noise": {},
                "analysis": {"collapse_gammas": [0.5, math.nan], "collapse_t_min": 2},
            },
        ),
        "infinite-collapse-gamma": (
            "analysis.collapse_gammas",
            {
                "cycles": 4,
                "mu": [0.3, 0.6],
                "noise": {},
                "analysis": {"collapse_gammas": [math.inf], "collapse_t_min": 2},
            },
        ),
        "overflowing-collapse-gamma": (
            "analysis.collapse_gammas",
            {
                "cycles": 4,
                "mu": [0.3, 0.6],
                "noise": {},
                "analysis": {"collapse_gammas": [0.5, 600.0], "collapse_t_min": 2},
            },
        ),
        "collapse-cut-past-the-float-range": (
            "analysis.collapse_t_min",
            {
                "cycles": 4,
                "mu": [0.3, 0.6],
                "noise": {},
                "analysis": {"collapse_gammas": [0.5], "collapse_t_min": 10**400},
            },
        ),
        "collapse-with-one-knot": (
            "analysis.collapse_knots",
            {
                "cycles": 4,
                "mu": [0.3, 0.6],
                "noise": {},
                "analysis": {
                    "collapse_gammas": [0.5], "collapse_t_min": 2, "collapse_knots": 1
                },
            },
        ),
    }

    @pytest.mark.parametrize("key, overrides", REFUSED.values(), ids=list(REFUSED))
    def test_refusal_names_the_key(self, tmp_path, capsys, key, overrides):
        cfg = write_config(tmp_path / "cfg.json", **{**self.NOISY, **overrides})
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith(f"error: config key '{key}'")
        assert not (tmp_path / "o").exists()  # refused before any work

    @pytest.mark.parametrize("mode", ["exact", "sampled"])
    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 5])
    def test_a_seed_outside_64_bits_is_refused_from_the_command_line(
        self, tmp_path, capsys, seed, mode
    ):
        # 2^64 + 5 would otherwise draw what seed 5 draws
        cfg = write_config(
            tmp_path / "cfg.json", mode=mode, initial_states=2, shots_per_state=10
        )
        out = tmp_path / "o"
        argv = ["run", "--config", str(cfg), "--out", str(out), "--seed", str(seed)]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error: config key 'seed'")
        assert not out.exists()  # refused before any work
        assert main([*argv[:-1], str(2**64 - 1)]) == 0
        assert json.loads((out / "manifest.json").read_text())["seed"] == 2**64 - 1

    @pytest.mark.parametrize("key", ["e0", "e1"])
    def test_per_qubit_rates_need_one_rate_per_qubit(self, tmp_path, capsys, key):
        noise = {"t1_cycles": 4.0, key: [0.01, 0.02, 0.03]}
        cfg = write_config(tmp_path / "cfg.json", **{**self.NOISY, "noise": noise})
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: config key 'noise.{key}'")
        assert "4 per-qubit" in err
        assert not list(out.glob("*.csv"))  # refused before any trajectory
        noise[key] = [0.01, 0.02, 0.03, 0.04]
        cfg = write_config(tmp_path / "cfg.json", **{**self.NOISY, "noise": noise})
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0


class TestWindowCheck:
    """A sampled window whose tables cannot fit is refused under `cycles`;
    the configs at both edges are parsed only."""

    @staticmethod
    def config(mode, n_qubits, cycles):
        cfg = dict(
            mode=mode, theta=HEIS_THETA, phi=HEIS_PHI, mu=0.0,
            n_qubits=n_qubits, cycles=cycles,
        )
        if mode == "noisy-sampled":
            cfg["noise"] = {"t1_cycles": 20.0, "e0": 0.01}
        return cfg

    @pytest.mark.parametrize("mode, width", [("sampled", 30), ("noisy-sampled", 22)])
    def test_the_widest_admitted_window_parses(self, mode, width):
        for n_qubits, cycles in ((46, width // 2), (width, 40)):
            parsed = cli._parse_config(self.config(mode, n_qubits, cycles))
            assert parsed["chain"].cycles == cycles

    @pytest.mark.parametrize("mode, width", [("sampled", 32), ("noisy-sampled", 24)])
    def test_the_next_window_is_refused(self, mode, width):
        with pytest.raises(ConfigError, match="config key 'cycles'"):
            cli._parse_config(self.config(mode, 46, width // 2))

    def test_a_noisy_batch_of_too_many_shots_is_refused_under_its_key(self):
        cfg = self.config("noisy-sampled", 46, 1)
        cli._parse_config({**cfg, "shots_per_state": 10**5})
        with pytest.raises(ConfigError, match="config key 'shots_per_state'"):
            cli._parse_config({**cfg, "shots_per_state": 10**7})

    @pytest.mark.parametrize("postselect", ["none", "number_only", "causal"])
    def test_a_damped_22_site_window_takes_shots_up_to_its_edge(self, postselect):
        # damping lowers a column into sectors of up to C(22, 11) = 705432
        # amplitudes, and a chunk holds only as many columns as fit that
        # sector, one here, whichever of them jump and whatever the
        # filter: beside the window's tables 58,936 shots a state fit,
        # and one more is refused under `shots_per_state`
        cfg = {**self.config("noisy-sampled", 46, 11), "postselect": postselect}
        cli._parse_config({**cfg, "shots_per_state": 58_936})
        with pytest.raises(ConfigError, match="config key 'shots_per_state'"):
            cli._parse_config({**cfg, "shots_per_state": 58_937})

    def test_a_noiseless_run_of_too_many_states_is_refused_under_its_key(self):
        # 10^6 states of a 2-site window on 46 sites hold about 2.3 GB of
        # per-state arrays, 10^7 about 23 GB
        cfg = self.config("sampled", 46, 1)
        cli._parse_config({**cfg, "initial_states": 10**6})
        with pytest.raises(ConfigError, match="config key 'initial_states'"):
            cli._parse_config({**cfg, "initial_states": 10**7})

    def test_a_paper_length_chain_at_20_cycles_is_refused_before_any_write(
        self, tmp_path, capsys
    ):
        cfg = write_config(tmp_path / "cfg.json", **self.config("sampled", 46, 20))
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: config key 'cycles'")
        assert not out.exists()


class TestAnalysisArtifacts:
    def test_exponent_and_collapse_outputs(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json",
            cycles=5,
            n_qubits=10,
            mu=[0.4, 0.8],
            analysis={
                "exponent_window": [2, 5],
                "collapse_gammas": [0.4, 0.6, 0.8],
                "collapse_t_min": 3,
            },
        )
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        header, rows = read_csv(out / "exponent_fit.csv")
        assert header == "mu,z,sigma_z,t_min,t_max,n_points"
        assert [r[0] for r in rows] == ["0.4", "0.8"]
        header, rows = read_csv(out / "collapse_scan.csv")
        assert header == "gamma,residual"
        assert [r[0] for r in rows] == ["0.4", "0.6", "0.8"]

    @pytest.mark.parametrize("mu", [0.0, [0.5, "inf"]])
    def test_collapse_over_fewer_than_two_mu_is_refused_before_the_run(
        self, tmp_path, capsys, mu
    ):
        analysis = {"collapse_gammas": [0.4, 0.6]}
        cfg = write_config(tmp_path / "cfg.json", mu=mu, analysis=analysis)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config key 'analysis.collapse_gammas'")
        assert not list(out.glob("*.csv"))  # no distribution was written
        # analyze refuses the same scan over stored tables
        run_out = tmp_path / "run"
        cfg = write_config(tmp_path / "cfg.json", mu=mu)
        assert main(["run", "--config", str(cfg), "--out", str(run_out)]) == 0
        (tmp_path / "an.json").write_text(json.dumps(analysis))
        argv = ["analyze", "--input", str(run_out), "--config", str(tmp_path / "an.json")]
        assert main([*argv, "--out", str(tmp_path / "an")]) == 1
        assert "analysis.collapse_gammas" in capsys.readouterr().err

    def test_a_collapse_over_nan_skewness_names_its_mu_and_cycle(
        self, tmp_path, capsys
    ):
        # at theta = 0 no mass moves: the variance is 0, the skewness NaN
        analysis = {
            "collapse_gammas": [0.5, 0.7], "collapse_t_min": 1, "collapse_knots": 3
        }
        cfg = write_config(
            tmp_path / "cfg.json", theta=0, phi=0.5, n_qubits=8, cycles=4,
            mu=[0.5, 1.0, 2.0], analysis=analysis,
        )
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err == "error: collapse value nan of mu 0.5 at cycle 1 is not finite\n"

    def test_a_failed_analysis_leaves_no_artifact(self, tmp_path, capsys):
        # the scan fails after every mu has run: neither `run` nor `analyze`
        # may leave a CSV or a manifest that looks like a finished run
        analysis = {
            "collapse_gammas": [0.5, 0.7], "collapse_t_min": 1, "collapse_knots": 3
        }
        chain = dict(theta=0, phi=0.5, n_qubits=8, cycles=4, mu=[0.5, 1.0, 2.0])
        cfg = write_config(tmp_path / "cfg.json", **chain, analysis=analysis)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        assert not out.exists()
        run_out = tmp_path / "run"
        cfg = write_config(tmp_path / "plain.json", **chain)
        assert main(["run", "--config", str(cfg), "--out", str(run_out)]) == 0
        (tmp_path / "an.json").write_text(json.dumps(analysis))
        argv = ["analyze", "--input", str(run_out), "--config", str(tmp_path / "an.json")]
        assert main([*argv, "--out", str(tmp_path / "an")]) == 1
        assert not (tmp_path / "an").exists()
        assert "collapse value nan" in capsys.readouterr().err

    def test_analyze_into_its_input_is_refused_before_any_write(
        self, tmp_path, monkeypatch, capsys
    ):
        # run and analyze both default to ./spinfcs_out; moments rewritten
        # there from the distributions alone lose a sampled run's sigmas
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("SPINFCS_OUT", raising=False)
        cfg = write_config(
            tmp_path / "cfg.json", mode="sampled", n_qubits=6, cycles=3, mu=0.5,
            initial_states=10, shots_per_state=20,
        )
        assert main(["run", "--config", str(cfg)]) == 0
        run_out = tmp_path / "spinfcs_out"
        before = {path.name: path.read_bytes() for path in run_out.iterdir()}
        (tmp_path / "an.json").write_text("{}")
        capsys.readouterr()
        assert main(["analyze", "--input", "spinfcs_out", "--config", "an.json"]) == 1
        assert capsys.readouterr().err == (
            "error: --out spinfcs_out is the --input directory; give another --out\n"
        )
        other_path = str(run_out / ".." / "spinfcs_out")
        argv = ["analyze", "--input", str(run_out), "--config", "an.json"]
        assert main([*argv, "--out", other_path]) == 1
        assert {path.name: path.read_bytes() for path in run_out.iterdir()} == before

    def test_analyze_takes_a_run_config_without_an_analysis_table(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", cycles=3, mu=[0.3, 0.9])
        run_out = tmp_path / "run"
        assert main(["run", "--config", str(cfg), "--out", str(run_out)]) == 0
        an_out = tmp_path / "an"
        argv = ["analyze", "--input", str(run_out), "--config", str(cfg)]
        assert main([*argv, "--out", str(an_out)]) == 0
        tags = ("0.3", "0.9")
        assert sorted(path.name for path in an_out.iterdir()) == [
            f"moments_mu{tag}.csv" for tag in tags
        ]
        for tag in tags:
            name = f"moments_mu{tag}.csv"
            assert (an_out / name).read_bytes() == (run_out / name).read_bytes()

    def test_synthetic_power_law_recovers_z(self, tmp_path):
        # hand-written distribution tables with mean exactly c * t^(2/3)
        lines = ["cycle,M,probability"]
        for t in range(1, 7):
            mean = 0.25 * t ** (2 / 3)  # stays within [0, 2]
            p2 = mean / 2.0
            lines.append(f"{t},0,{1 - p2!r}")
            lines.append(f"{t},2,{p2!r}")
        src = tmp_path / "runout"
        src.mkdir()
        (src / "distributions_mu0.5.csv").write_text("\n".join(lines) + "\n")
        (tmp_path / "an.json").write_text(json.dumps({"exponent_window": [1, 6]}))
        out = tmp_path / "an_out"
        assert (
            main(
                [
                    "analyze",
                    "--input",
                    str(src),
                    "--config",
                    str(tmp_path / "an.json"),
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        _, rows = read_csv(out / "exponent_fit.csv")
        assert abs(float(rows[0][1]) - 1.5) < 1e-10

    def test_analyze_is_idempotent_on_exact_runs(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json",
            cycles=3,
            mu=[0.3, 0.9],
            analysis={"exponent_window": [1, 3]},
        )
        run_out = tmp_path / "run"
        assert main(["run", "--config", str(cfg), "--out", str(run_out)]) == 0
        an_out = tmp_path / "an"
        assert (
            main(
                [
                    "analyze",
                    "--input",
                    str(run_out),
                    "--config",
                    str(tmp_path / "cfg.json"),
                    "--out",
                    str(an_out),
                ]
            )
            == 0
        )
        for tag in ("0.3", "0.9"):
            assert (run_out / f"moments_mu{tag}.csv").read_bytes() == (
                an_out / f"moments_mu{tag}.csv"
            ).read_bytes()
        assert (run_out / "exponent_fit.csv").read_bytes() == (
            an_out / "exponent_fit.csv"
        ).read_bytes()

    @pytest.mark.parametrize(
        "rows, problem",
        [
            ("2,0,0.5\n2,1,0.5", "odd M 1"),
            ("2,0,0.5\n2,2,0.25\n2,2,0.25", "repeated M 2"),
            ("2,0,1.5\n2,2,1.5", "mass sums to 3.0"),
            ("2,0,1.5\n2,2,-0.5", "negative mass at M 2"),
        ],
        ids=["odd-M", "repeated-M", "mass-3", "negative-mass"],
    )
    def test_malformed_table_is_refused(self, tmp_path, capsys, rows, problem):
        src = tmp_path / "bad"
        src.mkdir()
        table = "cycle,M,probability\n1,0,0.5\n1,2,0.5\n" + rows + "\n"
        (src / "distributions_mu0.5.csv").write_text(table)
        (tmp_path / "an.json").write_text("{}")
        argv = ["analyze", "--input", str(src), "--config", str(tmp_path / "an.json")]
        assert main([*argv, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: distributions_mu0.5.csv: cycle 2: ")
        assert problem in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "key, analysis",
        [
            ("analysis.exponent_window", {"exponent_window": [10, 23]}),
            ("analysis.collapse_t_min", {"collapse_gammas": [0.5], "collapse_t_min": 3}),
            ("analysis.collapse_gammas", {"collapse_gammas": [700.0], "collapse_t_min": 2}),
        ],
        ids=[
            "exponent-window-past-the-tables",
            "collapse-cut-at-the-last-cycle",
            "overflowing-collapse-gamma",
        ],
    )
    def test_analysis_the_tables_cannot_satisfy_is_refused_before_any_write(
        self, tmp_path, capsys, key, analysis
    ):
        run_out = tmp_path / "run"
        cfg = write_config(tmp_path / "cfg.json", cycles=3, mu=[0.3, 0.6])
        assert main(["run", "--config", str(cfg), "--out", str(run_out)]) == 0
        (tmp_path / "an.json").write_text(json.dumps(analysis))
        argv = ["analyze", "--input", str(run_out), "--config", str(tmp_path / "an.json")]
        assert main([*argv, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith(f"error: config key '{key}'")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "tag, problem",
        [
            ("nan", "is not >= 0 or inf"),
            ("-1.0", "is not >= 0 or inf"),
            ("-inf", "is not >= 0 or inf"),
            ("x", "is not >= 0 or inf"),
            ("0.30", "repeats another file's mu"),
        ],
        ids=["nan", "negative", "minus-inf", "not-a-number", "repeated"],
    )
    def test_mu_tag_that_run_refuses_is_refused_before_any_write(
        self, tmp_path, capsys, tag, problem
    ):
        run_out = tmp_path / "run"
        cfg = write_config(tmp_path / "cfg.json", cycles=3, mu=0.3)
        assert main(["run", "--config", str(cfg), "--out", str(run_out)]) == 0
        table = (run_out / "distributions_mu0.3.csv").read_bytes()
        (run_out / f"distributions_mu{tag}.csv").write_bytes(table)
        (tmp_path / "an.json").write_text(json.dumps({"exponent_window": [1, 3]}))
        argv = ["analyze", "--input", str(run_out), "--config", str(tmp_path / "an.json")]
        assert main([*argv, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: distributions_mu{tag}.csv: mu '{tag}' {problem}")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "row, column",
        [
            ("1,100000000000000000000000000000,1.0", "M"),
            (f"1,{-(2**63)},1.0", "M"),
            ("-3,0,1.0", "cycle"),
            (f"{2**63},0,1.0", "cycle"),
        ],
        ids=["M-past-int64", "M-whose-negative-is-past-int64", "negative-cycle",
             "cycle-past-int64"],
    )
    def test_an_integer_out_of_range_is_refused(self, tmp_path, capsys, row, column):
        src = tmp_path / "bad"
        src.mkdir()
        table = "cycle,M,probability\n1,0,0.5\n1,2,0.5\n" + row + "\n"
        (src / "distributions_mu0.5.csv").write_text(table)
        (tmp_path / "an.json").write_text("{}")
        argv = ["analyze", "--input", str(src), "--config", str(tmp_path / "an.json")]
        assert main([*argv, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err == (
            f"error: distributions_mu0.5.csv:4: column '{column}' is out of range\n"
        )
        assert not (tmp_path / "o").exists()

    def test_the_grid_holds_the_rows_m_alone(self, tmp_path):
        # two rows 4e10 apart: a grid of every even M between them would
        # hold 2e10 entries
        src = tmp_path / "wide"
        src.mkdir()
        table = "cycle,M,probability\n1,-20000000000,0.5\n1,20000000000,0.5\n"
        (src / "distributions_mu0.5.csv").write_text(table)
        (tmp_path / "an.json").write_text("{}")
        argv = ["analyze", "--input", str(src), "--config", str(tmp_path / "an.json")]
        start = time.perf_counter()
        assert main([*argv, "--out", str(tmp_path / "o")]) == 0
        assert time.perf_counter() - start < 1.0
        _, rows = read_csv(tmp_path / "o" / "moments_mu0.5.csv")
        assert [float(v) for v in rows[0][1:3]] == [0.0, 4e20]

    @pytest.mark.parametrize("mode", ["exact", "sampled"])
    def test_moments_of_a_sparse_grid_are_those_of_the_full_grid(self, tmp_path, mode):
        # zero-mass M add exact zeros to the moment sums: the rows' M of
        # nonzero mass, their negatives and 0 give the bits of every even M
        # up to the largest |M| of the table, the grid a run's moments and
        # earlier `analyze` grids are taken on
        cfg = write_config(
            tmp_path / "cfg.json", mode=mode, n_qubits=8, cycles=4, mu=[0.0, 0.7],
            initial_states=30, shots_per_state=20, seed=11,
        )
        out = tmp_path / "run"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        for path in sorted(out.glob("distributions_mu*.csv")):
            for t, (values, probs) in cli._read_distribution_csv(str(path)).items():
                kept = probs > 0
                sparse = cli._symmetric_grid(values[kept], probs[kept])
                top = np.abs(values).max()
                full = np.zeros(top + 1)
                full[(values + top) // 2] = probs
                row = moment_row((np.arange(-top, top + 1, 2.0), full))
                assert moment_row(sparse).tobytes() == row.tobytes()

    def test_round_trip_serialization(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", cycles=2, mu=0.7)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        path = out / "distributions_mu0.7.csv"
        original = path.read_bytes()
        per_cycle = cli._read_distribution_csv(str(path))
        rewritten = tmp_path / "rewritten.csv"
        table = (rewritten.name, cli._distribution_lines(per_cycle))
        cli._write_tables(str(tmp_path), [table])
        assert rewritten.read_bytes() == original

    def test_schema_mismatch_names_column(self, tmp_path, capsys):
        src = tmp_path / "bad"
        src.mkdir()
        (src / "distributions_mu0.5.csv").write_text(
            "cycle,M,probability\n1,abc,0.5\n"
        )
        (tmp_path / "an.json").write_text("{}")
        code = main(
            [
                "analyze",
                "--input",
                str(src),
                "--config",
                str(tmp_path / "an.json"),
                "--out",
                str(tmp_path / "o"),
            ]
        )
        assert code == 1
        assert "column 'M'" in capsys.readouterr().err

    def test_wrong_header_rejected(self, tmp_path, capsys):
        src = tmp_path / "bad"
        src.mkdir()
        (src / "distributions_mu0.5.csv").write_text("c,m,p\n1,0,1.0\n")
        (tmp_path / "an.json").write_text("{}")
        code = main(
            [
                "analyze",
                "--input",
                str(src),
                "--config",
                str(tmp_path / "an.json"),
                "--out",
                str(tmp_path / "o"),
            ]
        )
        assert code == 1
        assert "header" in capsys.readouterr().err

    @pytest.mark.parametrize("raw", [5, [1, 2], "exponent_window"])
    def test_analysis_config_must_be_an_object(self, tmp_path, capsys, raw):
        (tmp_path / "an.json").write_text(json.dumps(raw))
        code = main(
            [
                "analyze",
                "--input",
                str(tmp_path),
                "--config",
                str(tmp_path / "an.json"),
                "--out",
                str(tmp_path / "o"),
            ]
        )
        assert code == 1
        assert "'analysis': expected an object" in capsys.readouterr().err


class TestAnalysisRefusals:
    """`_check_analysis` refuses from the cycles alone exactly the analyses
    that `_analysis_tables` fails on the finished reports."""

    WINDOWS = [(lo, hi) for lo in range(0, 6) for hi in range(lo, 7)]
    CUTS = range(0, 6)
    GAMMAS = [0.5, 600.0, math.nan, math.inf]

    def test_refused_exactly_when_the_finished_analysis_fails(self):
        cfg = dict(
            mode="exact", theta=HEIS_THETA, phi=HEIS_PHI, n_qubits=8, cycles=4,
            mu=[0.3, 0.6],
        )
        results, _ = cli._run(cli._parse_config(cfg), threads=1)
        series = {mu: report for mu, (_, report) in results.items()}
        analyses = [{"exponent_window": window} for window in self.WINDOWS] + [
            {"collapse_gammas": [gamma], "collapse_t_min": t_min, "collapse_knots": 12}
            for gamma in self.GAMMAS
            for t_min in self.CUTS
        ]
        outcomes = set()
        for analysis in analyses:
            try:
                cli._analysis_tables(analysis, series)
                failed = False
            except ValueError:
                failed = True
            # the cycles as `run` gives them, and as `analyze` reads them
            for cycles in (range(1, 5), series[0.3].cycles):
                try:
                    cli._check_analysis(analysis, dict.fromkeys(series, cycles))
                    refused = False
                except ConfigError:
                    refused = True
                assert refused == failed, analysis
            outcomes.add(failed)
        assert outcomes == {False, True}  # the grid holds both


class TestOutputErrors:
    def test_run_into_a_file_is_an_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json")
        target = tmp_path / "taken"
        target.write_text("")
        assert main(["run", "--config", str(cfg), "--out", str(target)]) == 1
        assert capsys.readouterr().err.startswith("error: cannot write output: ")

    def test_analyze_into_a_file_is_an_error(self, tmp_path, capsys):
        run_out = tmp_path / "run"
        cfg = write_config(tmp_path / "cfg.json")
        assert main(["run", "--config", str(cfg), "--out", str(run_out)]) == 0
        capsys.readouterr()
        (tmp_path / "an.json").write_text("{}")
        target = tmp_path / "taken"
        target.write_text("")
        argv = ["analyze", "--input", str(run_out), "--config", str(tmp_path / "an.json")]
        assert main([*argv, "--out", str(target)]) == 1
        assert capsys.readouterr().err.startswith("error: cannot write output: ")


class TestExponentFit:
    def test_a_failed_fit_names_its_mu(self, tmp_path, capsys):
        # at theta = 0 no mass moves: every mean and variance is 0, so the
        # window keeps no point
        cfg = write_config(
            tmp_path / "cfg.json", theta=0.0, n_qubits=6, cycles=3,
            mu=[0, 0.5, "inf"], analysis={"exponent_window": [1, 3]},
        )
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err == "error: mu=0.0: need >= 3 points in window [1, 3], have 0\n"

    def test_mu_zero_row_is_fitted_to_the_variance(self, tmp_path):
        # the mu=0 mean vanishes to rounding and used to abort the run
        cfg = write_config(
            tmp_path / "cfg.json",
            n_qubits=8,
            cycles=4,
            mu=[0.0, 0.5],
            analysis={"exponent_window": [2, 4]},
        )
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        _, rows = read_csv(out / "exponent_fit.csv")
        fits = {row[0]: row for row in rows}
        assert 1.0 < float(fits["0.0"][1]) < 2.0
        assert math.isfinite(float(fits["0.0"][2]))
        assert fits["0.0"][3:] == ["2", "4", "3"]
        # mu > 0 keeps fitting the mean
        _, moments = read_csv(out / "moments_mu0.5.csv")
        fit = fit_dynamical_exponent(
            [int(r[0]) for r in moments],
            [float(r[1]) for r in moments],
            window=(2, 4),
        )
        assert fits["0.5"][1] == repr(fit.z)


class TestOracle:
    def test_cycle_one_values(self, capsys):
        assert main(["oracle", "--theta", str(HEIS_THETA), "--mu", "0.0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mean"] == 0.0
        assert abs(payload["kurtosis"] - REFERENCE_KURTOSIS[1]) < 1e-12

    def test_cycle_two_values(self, capsys):
        assert (
            main(
                [
                    "oracle",
                    "--theta",
                    str(HEIS_THETA),
                    "--phi",
                    str(HEIS_PHI),
                    "--mu",
                    "0.0",
                    "--cycle",
                    "2",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["mean_leading"] == 0.0
        assert payload["variance_leading"] > 0.0

    def test_invalid_theta_reports_error(self, capsys):
        assert main(["oracle", "--theta", "0.0", "--mu", "0.5"]) == 1
        assert "error" in capsys.readouterr().err


class TestImport:
    def test_import_loads_no_scipy(self):
        # SciPy is the tests' reference only; the program starts without it
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src)
        code = (
            "import sys, spinfcs, spinfcs.cli\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    def test_a_run_with_a_collapse_scan_loads_no_masked_arrays(self, tmp_path):
        # numpy.ma costs about 1 MB of memory; no step of a run needs it
        cfg = write_config(
            tmp_path / "cfg.json",
            cycles=5,
            n_qubits=10,
            mu=[0.4, 0.8],
            analysis={"collapse_gammas": [0.4, 0.6, 0.8], "collapse_t_min": 3},
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src)
        argv = ["run", "--config", str(cfg), "--out", str(tmp_path / "o")]
        code = (
            "import sys\n"
            "from spinfcs.cli import main\n"
            f"assert main({argv!r}) == 0\n"
            "print('numpy.ma' in sys.modules)"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert (tmp_path / "o" / "collapse_scan.csv").exists()
        assert done.stdout.splitlines()[-1] == "False"
