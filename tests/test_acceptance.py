"""Acceptance suite: every criterion checked at its stated tolerance.

Each test prints one `ACCEPTANCE <n> PASS|FAIL <name>` line (visible with
pytest -s or in captured output).  The exact t<=8 dataset used by the
scaling criteria is computed once per session.
"""

import contextlib
import itertools
import math
import time

import numpy as np
import pytest
import scipy.stats

from conftest import REFERENCE_KURTOSIS, exact_dists, mass_at
from test_noise import bfs_min_layers

from spinfcs.circuit import ChainConfig
from spinfcs.ensemble import (
    ImbalanceEnsemble,
    distribution_from_tensor,
    transfer_tensor,
)
from spinfcs.gates import FSimParams, PhaseConvention
from spinfcs.noise import NoiseConfig, causal_min_half_layers, damp_bits, postselect
from spinfcs.sampler import SampleConfig, moment_report, run_sampled
from spinfcs.stats import (
    central_moments,
    collapse_scan,
    fit_dynamical_exponent,
    jackknife_sigma,
    moment_row,
)

THETA = 0.4 * np.pi
PHI = 0.8 * np.pi
HEIS = FSimParams(THETA, PHI)


@contextlib.contextmanager
def criterion(number, name):
    # one verdict line per criterion; run with `pytest -s` to see them live
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL {name}", flush=True)
        raise
    print(f"ACCEPTANCE {number} PASS {name}", flush=True)


@pytest.fixture(scope="session")
def exact_t8_dataset():
    """mu-resolved moments of the exact light-cone chain through cycle 8."""
    # bitwise the same on any thread count (test_thread_count_does_not_change_bits)
    tensor = transfer_tensor(16, 8, HEIS, threads=2)
    cycles = np.arange(1, 9)
    mus = [round(0.1 * k, 1) for k in range(2, 11)]  # 0.2 .. 1.0
    means = {}
    skews = {}
    for mu in mus:
        ens = ImbalanceEnsemble(mu, 16)
        mean_series = []
        skew_series = []
        for t in cycles:
            dist = distribution_from_tensor(tensor, int(t), ens)
            m, _, s, _ = moment_row(dist)
            mean_series.append(m)
            skew_series.append(s)
        means[mu] = np.array(mean_series)
        skews[mu] = np.array(skew_series)
    return cycles, mus, means, skews


def test_criterion_01_reference_kurtosis_rows():
    with criterion(1, "exact kurtosis at cycles 1-4 within 1e-9, under 1 min"):
        start = time.perf_counter()
        dists = exact_dists(
            ImbalanceEnsemble(0.0, 8), ChainConfig(8, 4, HEIS)
        )
        for t in (1, 2, 3, 4):
            q = moment_row(dists[t])[3]
            assert abs(q - REFERENCE_KURTOSIS[t]) < 1e-9
        assert time.perf_counter() - start < 60.0


def test_criterion_02_length_independence():
    with criterion(2, "moments length-independent to 1e-12 for n >= 2t"):
        for t in (1, 2, 3, 4):
            reference = None
            for n in (2 * t, 2 * t + 2, 2 * t + 4):
                dist = exact_dists(
                    ImbalanceEnsemble(0.0, n), ChainConfig(n, t, HEIS)
                )[-1]
                alpha = central_moments(dist)
                moments = np.array(
                    [alpha[1], alpha[2], alpha[3], alpha[4]]
                )
                if reference is None:
                    reference = moments
                else:
                    assert np.max(np.abs(moments - reference)) < 1e-12


def test_criterion_03_cycle_one_oracle():
    with criterion(3, "cycle-1 closed forms match exact on a 5x5 grid"):
        thetas = [0.1 * np.pi, 0.2 * np.pi, 0.3 * np.pi, 0.4 * np.pi, 0.45 * np.pi]
        mus = [0.0, 0.25, 0.6, 1.2, 2.5]
        for theta in thetas:
            params = FSimParams(theta, PHI)
            for mu in mus:
                dist = exact_dists(
                    ImbalanceEnsemble(mu, 2), ChainConfig(2, 1, params)
                )[-1]
                mean, var, _, q = moment_row(dist)
                tm = math.tanh(mu)
                assert abs(mean - 2 * math.sin(theta) ** 2 * tm) < 1e-12
                expected_var = (
                    2 * math.sin(theta) ** 2 * (1 + math.cos(2 * theta) * tm**2)
                )
                assert abs(var - expected_var) < 1e-12
                if mu == 0.0:
                    assert abs(q - (2 / math.sin(theta) ** 2 - 3)) < 1e-12


def test_criterion_04_convention_and_sign_invariance():
    with criterion(4, "imbalanced kurtosis values, convention/sign invariant"):
        cases = [(4, 2, -0.30867052), (8, 4, -0.12588028)]
        for n, t, expected in cases:
            ens = ImbalanceEnsemble(0.5, n)
            variants = [
                FSimParams(THETA, PHI, PhaseConvention.TAIL),
                FSimParams(THETA, PHI, PhaseConvention.SPLIT),
                FSimParams(-THETA, PHI),
                FSimParams(THETA, -PHI),
            ]
            kurtoses = []
            for params in variants:
                dist = exact_dists(ens, ChainConfig(n, t, params))[-1]
                kurtoses.append(moment_row(dist)[3])
            for q in kurtoses:
                assert abs(q - expected) < 1e-7
            assert max(kurtoses) - min(kurtoses) < 1e-12


def test_criterion_05_anisotropy_mapping():
    with criterion(5, "gate-angle to anisotropy mapping"):
        assert FSimParams(0.4 * np.pi, 0.8 * np.pi).anisotropy() == 1.0
        assert abs(FSimParams(0.4 * np.pi, 0.1 * np.pi).anisotropy() - 0.1645) < 0.0005
        assert abs(FSimParams(0.17 * np.pi, 0.6 * np.pi).anisotropy() - 1.589) < 0.002


def test_criterion_06_causal_filter():
    with criterion(6, "causal filter: worked pair and BFS equivalence"):
        start = time.perf_counter()
        b_i = [1, 1, 0, 1, 1, 0, 0, 0]
        b_f = [0, 1, 0, 1, 1, 0, 0, 1]
        assert causal_min_half_layers(b_i, b_f) == 3
        n = 6
        for k in range(4):
            for src in itertools.combinations(range(n), k):
                bits_i = [1 if i in src else 0 for i in range(n)]
                for dst in itertools.combinations(range(n), k):
                    bits_f = [1 if i in dst else 0 for i in range(n)]
                    greedy = causal_min_half_layers(bits_i, bits_f)
                    assert greedy == bfs_min_layers(bits_i, bits_f, n, 0)
        assert time.perf_counter() - start < 300.0


def test_criterion_07_symmetry():
    with criterion(7, "balanced-ensemble mirror symmetry and exact zero skew"):
        for t in (1, 2, 3, 4):
            dist = exact_dists(
                ImbalanceEnsemble(0.0, 2 * t), ChainConfig(2 * t, t, HEIS)
            )[-1]
            assert np.max(np.abs(dist[1] - dist[1][::-1])) < 1e-14
        run = run_sampled(
            ImbalanceEnsemble(0.0, 6),
            ChainConfig(6, 3, HEIS),
            SampleConfig(50, 200, seed=17),
        )
        probs = run.per_state_distributions().mean(axis=0)
        skew = moment_row((run.grid, 0.5 * (probs + probs[::-1])))[2]
        assert skew == 0.0


def test_criterion_08_noise_pipeline():
    with criterion(8, "damping survival law and readout-leakage distortion"):
        # gate-free chain: three excitations, T1 = 3 cycles, t = 6
        noise = NoiseConfig(t1_cycles=3.0)
        rng = np.random.default_rng(2024)
        n_traj = 100000
        bits = np.tile(np.array([1, 0, 1, 0, 1, 0]), (n_traj, 1))
        damped = damp_bits(bits, 6.0, noise, rng.random(bits.shape))
        survived = damped.sum(axis=1) == 3
        for row in damped[:50]:
            assert postselect(bits[0], row, 6, "number_only") == (row.sum() == 3)
        p = math.exp(-6.0)
        sigma = math.sqrt(p * (1 - p) / n_traj)
        assert abs(survived.mean() - p) < 5 * sigma

        # damping plus 0->1 readout error leaks through the number filter
        ens = ImbalanceEnsemble(0.5, 6)
        config = ChainConfig(6, 2, HEIS)
        noisy = run_sampled(
            ens,
            config,
            SampleConfig(30, 600, seed=41),
            noise=NoiseConfig(t1_cycles=3.0, e0=0.1, e1=0.0),
            postselect_mode="number_only",
        )
        observed = noisy.counts.sum(axis=0).astype(float)
        kept = observed.sum()
        assert kept > 1000
        ideal = exact_dists(ens, config)[-1]
        expected = np.zeros_like(observed)
        half = 3
        for i, m_half in enumerate(range(-half, half + 1)):
            expected[i] = kept * mass_at(ideal, 2 * m_half)
        in_cone = expected > 0
        chi2 = float(np.sum((observed[in_cone] - expected[in_cone]) ** 2 / expected[in_cone]))
        p_value = scipy.stats.chi2.sf(chi2, df=int(in_cone.sum()) - 1)
        if observed[~in_cone].sum() > 0:
            p_value = 0.0  # mass where the ideal circuit puts none
        assert p_value < 0.01


def test_criterion_09_estimator_consistency():
    with criterion(9, "sampled estimator vs exact, jackknife vs scatter"):
        ens = ImbalanceEnsemble(0.5, 6)
        config = ChainConfig(6, 3, HEIS)
        exact = moment_row(exact_dists(ens, config)[-1])
        run = run_sampled(ens, config, SampleConfig(100, 10000, seed=808))
        report = moment_report([run])
        observed = (
            report.mean[0],
            report.variance[0],
            report.skewness[0],
            report.kurtosis[0],
        )
        sigmas = (
            report.sigma_mean[0],
            report.sigma_variance[0],
            report.sigma_skewness[0],
            report.sigma_kurtosis[0],
        )
        for got, want, sig in zip(observed, exact, sigmas):
            assert abs(got - want) < 5 * sig

        # jackknife sigma tracks the true replication scatter of the mean
        estimates = []
        jk_sigmas = []
        for rep in range(200):
            rep_run = run_sampled(
                ens, ChainConfig(6, 2, HEIS), SampleConfig(40, 100, seed=5000 + rep)
            )
            rows = list(rep_run.per_state_distributions())
            grid = rep_run.grid.astype(float)

            def mean_stat(subset):
                return float(np.mean(subset, axis=0) @ grid)

            estimates.append(mean_stat(rows))
            jk_sigmas.append(jackknife_sigma(mean_stat, rows).sigma)
        scatter = float(np.std(estimates))
        ratio = float(np.mean(jk_sigmas)) / scatter
        assert abs(ratio - 1.0) < 0.1


def test_criterion_10_exponent_and_collapse(exact_t8_dataset):
    with criterion(10, "scaling machinery: synthetic exact, desk-scale ranges"):
        t = np.arange(5, 40)
        fit = fit_dynamical_exponent(t, 2.2 * t ** (2 / 3), window=(5, 39))
        assert abs(fit.z - 1.5) < 1e-12
        fit = fit_dynamical_exponent(t, 0.7 * t, window=(5, 39))
        assert abs(fit.z - 1.0) < 1e-12

        ts = np.arange(4, 30)
        synthetic = [
            (mu, ts, np.tanh(mu * ts ** (2 / 3) - 1.0))
            for mu in (0.2, 0.4, 0.6, 0.8, 1.0)
        ]
        gammas = np.round(np.arange(0.30, 1.0001, 1 / 30), 6)
        grid, res = collapse_scan(synthetic, gammas, t_min=4)
        assert abs(grid[int(np.argmin(res))] - 2 / 3) < 1 / 30 + 1e-12

        cycles, mus, means, skews = exact_t8_dataset
        fit = fit_dynamical_exponent(cycles, means[0.5], window=(4, 8))
        assert 1.3 < fit.z < 1.8

        series = [(mu, cycles, skews[mu]) for mu in mus]
        gammas = np.round(np.arange(0.30, 1.0001, 0.05), 2)
        grid, res = collapse_scan(series, gammas, t_min=6)
        best = grid[int(np.argmin(res))]
        assert 0.5 <= best <= 0.8


def test_criterion_11_thread_determinism(tmp_path):
    with criterion(11, "sampled artifacts byte-identical across --threads"):
        import json

        from spinfcs.cli import main

        cfg = {
            "mode": "sampled",
            "theta": THETA,
            "phi": PHI,
            "cycles": 2,
            "mu": [0.5],
            "seed": 31415,
            "initial_states": 16,
            "shots_per_state": 128,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        digests = []
        for threads, name in ((1, "a"), (7, "b")):
            out = tmp_path / name
            code = main(
                [
                    "run",
                    "--config",
                    str(cfg_path),
                    "--out",
                    str(out),
                    "--threads",
                    str(threads),
                ]
            )
            assert code == 0
            digests.append(
                {
                    p.name: p.read_bytes()
                    for p in sorted(out.glob("*.csv"))
                }
            )
        assert digests[0] == digests[1]
