"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Two profiles:
  - CI (default): samples=2^18, reps=10, tolerance half-widths doubled
    (per-repetition noise grows as sqrt(samples_full / samples_ci) = 2).
  - full: samples=2^20, reps=30, nominal tolerances;
    enable with LGWAVE_ACCEPTANCE_FULL=1.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from classical_reference import Z_MAX, count_z
from lgwave.experiment import run_experiment, run_kw_only
from lgwave.harness import ExperimentPlan
from lgwave.optics import OpticalParams, SourceParams, sample_hidden, SIGMA
from lgwave.optics import _split, propagate
from lgwave.oracle import predicted_pmfs, predicted_stats, type_weight_sums
from lgwave.stats import marginal_lg

FULL = os.environ.get("LGWAVE_ACCEPTANCE_FULL") == "1"
SAMPLES = (1 << 20) if FULL else (1 << 18)
REPS = 30 if FULL else 10
SCALE = 1.0 if FULL else 2.0
SEED = 0


def check(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


def in_window(value: float, center: float, half_width: float) -> bool:
    return center - half_width * SCALE <= value <= center + half_width * SCALE


@pytest.fixture(scope="session")
def default_result():
    plan = ExperimentPlan(
        source=SourceParams(r=0.3), gamma=2.0,
        samples=SAMPLES, reps=REPS, seed=SEED,
    )
    return run_experiment(plan)


def test_01_k_reproduction(default_result):
    k = default_result[1]["summary"]["K"]["mean"]
    check("1 K reproduction", in_window(k, 1.37, 0.06), f"K_bar={k:.4f}")


def test_02_w_reproduction(default_result):
    w = default_result[1]["summary"]["W"]["mean"]
    check("2 W reproduction", in_window(w, 0.044, 0.012), f"W_bar={w:.4f}")


def test_03_efficiencies(default_result):
    s = default_result[1]["summary"]
    targets = {
        "eta_t3": (0.0809, 0.002),
        "eta_t1t3": (0.0530, 0.002),
        "eta_t2t3": (0.0657, 0.008),
        "eta_t1t2t3": (0.0587, 0.002),
    }
    values = {name: s[name]["mean"] for name in targets}
    ok = all(in_window(values[n], c, hw) for n, (c, hw) in targets.items())
    detail = " ".join(f"{n}={v:.4f}" for n, v in values.items())
    check("3 efficiencies", ok, detail)


def test_04_double_detections(default_result):
    s = default_result[1]["summary"]
    d_open = s["delta_1111"]["mean"]
    d_1101 = s["delta_1101"]["mean"]
    ok = in_window(d_open, 3.8e-4, 1.2e-4) and in_window(d_1101, 4.9e-4, 1.2e-4)
    check("4 double detections", ok, f"delta(1111)={d_open:.2e} delta(1101)={d_1101:.2e}")


def test_05_lambda_set_distinctness(default_result):
    diffs = [s["sym_diff"] for s in default_result[1]["per_rep"]]
    ok = all(all(v > 0 for v in d.values()) for d in diffs)
    check("5 lambda-set distinctness", ok, f"rep0 symmetric differences={diffs[0]}")


def test_06_oracle_exactness():
    stats = predicted_stats(OpticalParams())
    _, _, p3 = predicted_pmfs(OpticalParams())
    ok = abs(stats["K"] - 1.5) < 1e-12 and abs(p3[0, 1, 1] - 0.09375) < 1e-12
    rng = np.random.default_rng(42)
    for _ in range(1000):
        optics = OpticalParams(
            t1=rng.uniform(), t2=rng.uniform(), t3=rng.uniform(),
            theta1=rng.uniform(0, 2 * np.pi), theta2=rng.uniform(0, 2 * np.pi),
        )
        ok = ok and all(
            abs(v - 1.0) < 1e-12 for v in type_weight_sums(optics).values()
        )
    check("6 oracle exactness", ok, f"K={stats['K']!r} P(+,-,-)={float(p3[0, 1, 1])!r}")


def test_07_marginal_identity_suite(default_result):
    rng = np.random.default_rng(7)
    worst_k, worst_w = -np.inf, -np.inf
    for _ in range(10_000):
        p3 = rng.dirichlet(np.ones(8)).reshape(2, 2, 2)
        k_marg, w_marg = marginal_lg(p3)
        worst_k = max(worst_k, k_marg)
        worst_w = max(worst_w, w_marg)
    for s in default_result[1]["per_rep"]:
        worst_k = max(worst_k, s["K_marginal"])
        worst_w = max(worst_w, s["W_marginal"])
    ok = worst_k <= 1.0 + 1e-12 and worst_w <= 1e-12
    check("7 marginal identities", ok, f"max K_marginal={worst_k:.12f} max W_marginal={worst_w:.2e}")


def test_08_sweep_trends():
    samples = 1 << 18 if FULL else 1 << 17
    reps = 4 if FULL else 3

    # one fused call: every point is evaluated on the same draws
    plans = [
        ExperimentPlan(
            source=SourceParams(r=r), gamma=gamma, samples=samples, reps=reps, seed=8
        )
        for r, gamma in ((0.3, 1.5), (0.3, 2.0), (0.1, 2.0), (1.0, 2.0))
    ]
    k_g15, k_g20, k_small_r, k_large_r = (k["mean"] for k, _ in run_kw_only(plans))
    ok = k_g20 > k_g15 and k_large_r > k_small_r and k_large_r > 1.5
    check(
        "8 sweep trends", ok,
        f"K(0.3,1.5)={k_g15:.3f} K(0.3,2.0)={k_g20:.3f} "
        f"K(0.1,2.0)={k_small_r:.3f} K(1.0,2.0)={k_large_r:.3f}",
    )


def test_09_determinism_across_workers(tmp_path):
    outputs = []
    for workers in (1, 2, 8):
        out = tmp_path / f"w{workers}"
        # the child imports lgwave from wherever this process found it
        env = dict(os.environ, LGWAVE_WORKERS=str(workers), PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.run(
            [sys.executable, "-m", "lgwave.cli", "run",
             "--samples", "8192", "--reps", "2", "--seed", "13",
             "--gamma", "1.2", "--out", str(out)],
            env=env, capture_output=True,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        summary = json.loads((out / "summary.json").read_text())
        summary["config"]["out"] = ""
        outputs.append((json.dumps(summary, sort_keys=True), (out / "counts.csv").read_bytes()))
    ok = all(o == outputs[0] for o in outputs[1:])
    check("9 determinism across workers", ok, "workers 1/2/8 identical outputs")


def test_10_physics_micro_oracles():
    rng = np.random.Generator(np.random.Philox(10))
    n = 10_000
    h = sample_hidden(rng, n)
    a2 = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
    a3 = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
    b = (1, 1, 1, 1)
    optics = OpticalParams(
        t1=rng.uniform(), t2=rng.uniform(), t3=rng.uniform(),
        theta1=rng.uniform(0, 2 * np.pi), theta2=rng.uniform(0, 2 * np.pi),
    )
    p_in = (np.abs(a2) ** 2 + np.abs(a3) ** 2).sum(axis=1)
    # each beam splitter alone, then the whole open path with its phases
    outputs = [_split(a2, a3, t) for t in (optics.t1, optics.t2, optics.t3)]
    outputs.append(propagate(a2, a3, h, b, optics))
    unitary_ok = all(
        np.allclose((np.abs(o2) ** 2 + np.abs(o3) ** 2).sum(axis=1), p_in, rtol=1e-12, atol=1e-12)
        for o2, o3 in outputs
    )

    r = 0.3
    n = 1_000_000
    h = sample_hidden(np.random.Generator(np.random.Philox(11)), n)
    from lgwave.optics import source_output

    a1, a2s, _ = source_output(h, SourceParams(r=r))
    power = (np.abs(a1) ** 2).sum(axis=1)
    se_p = power.std() / np.sqrt(n)
    moment1_ok = abs(power.mean() - np.cosh(2 * r)) < 3 * se_p
    prod = a1[:, 0] * a2s[:, 0]
    se_c = prod.std() / np.sqrt(n)
    moment2_ok = abs(prod.mean() - SIGMA**2 * np.sinh(2 * r)) < 3 * se_c
    # H with V uncorrelated
    cross = a1[:, 0] * a2s[:, 1]
    cross_ok = abs(cross.mean()) < 3 * cross.std() / np.sqrt(n)
    ok = unitary_ok and moment1_ok and moment2_ok and cross_ok
    check(
        "10 physics micro-oracles", ok,
        f"unitarity={unitary_ok} E||a1||^2={power.mean():.5f} "
        f"target={np.cosh(2 * r):.5f} E[a1 a2]={prod.mean().real:.5f} "
        f"target={SIGMA**2 * np.sinh(2 * r):.5f} |E[a1_H a2_V]|={abs(cross.mean()):.5f}",
    )


def test_11_herald_rate(default_result):
    # every context and rep of the fixture (r = 0.3, gamma = 2) against the
    # closed-form rates of heralds and of clicks at D2 and at D3
    counts = default_result[0]
    worst = np.abs(count_z(counts, 0.3, 2.0)).max(axis=(0, 1))
    names = ("n_herald", "n_plus+n_double", "n_minus+n_double")
    detail = ", ".join(f"{name}={z:.2f}" for name, z in zip(names, worst))
    rows = counts.shape[0] * counts.shape[1]
    ok = worst.max() <= Z_MAX
    check("11 herald and exit rates", ok, f"max |z| of {detail} over {rows} rows")
