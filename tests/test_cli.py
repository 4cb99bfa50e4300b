import json
import math
import os
import subprocess
import sys
from pathlib import Path

from conftest import REFERENCE_KURTOSIS
from spinfcs import cli
from spinfcs.cli import main
from spinfcs.stats import fit_dynamical_exponent

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
        cfg = write_config(
            tmp_path / "cfg.json", n_qubits=10, cycles=5, mu=[0.0, 0.5, "inf"]
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        artifacts = []
        for blas_threads in ("1", "2"):
            out = tmp_path / f"blas{blas_threads}"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=blas_threads)
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (src, env.get("PYTHONPATH")) if p
            )
            done = subprocess.run(
                [sys.executable, "-m", "spinfcs.cli", "run",
                 "--config", str(cfg), "--out", str(out)],
                env=env, capture_output=True, text=True, timeout=300,
            )
            assert done.returncode == 0, done.stderr
            artifacts.append({p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))})
        assert len(artifacts[0]) == 6
        assert artifacts[0] == artifacts[1]

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
        cfg = write_config(tmp_path / "cfg.json", cycles="two")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
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

    def test_round_trip_serialization(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", cycles=2, mu=0.7)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        from spinfcs.cli import _read_distribution_csv, _write_distributions

        path = out / "distributions_mu0.7.csv"
        original = path.read_bytes()
        per_cycle = _read_distribution_csv(str(path))
        rewritten = tmp_path / "rewritten.csv"
        _write_distributions(str(rewritten), per_cycle)
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


class TestExponentFit:
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
