"""Acceptance gate: ten end-to-end criteria, one printed verdict line each.

Run with pytest; every criterion prints PASS/FAIL plus a short label on the
real stdout (bypassing capture) so the gate is auditable from the test log
alone. Criteria cover calibration accuracy and speed, the privacy
inequality audit, Riccati correctness against closed forms and an
independent solver, filter consistency, the entropy floor/cap, separation
of control from privacy, closed-loop sanity on the shipped configs, the
privacy/performance sweep, and wire-log fidelity.
"""

import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import solve_discrete_are

from dplqg.bounds import (
    covariance_bound_condition,
    covariance_upper_bound,
    entropy_bound_report,
    logdet,
    variance_floor,
)
from dplqg.cli import sweep_epsilon
from dplqg.config import load
from dplqg.errors import InapplicableBoundError
from dplqg.lqg import synthesize
from dplqg.network import (
    AgentModel,
    assemble_network,
    eavesdropper_view,
    replay_estimates,
    run_simulation,
    write_messages_csv,
)
from dplqg.privacy import PrivacySpec, kappa, verify_dp_inequality
from dplqg.riccati import (
    dare_residual_control,
    dare_residual_filter,
    is_controllable,
    is_observable,
    solve_dare_control,
    solve_dare_filter,
)
from dplqg.rng import GaussianStream

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
PHI = (1.0 + math.sqrt(5.0)) / 2.0


def _report(capsys, ok, label):
    with capsys.disabled():
        print(f"{'PASS' if ok else 'FAIL'}: {label}", flush=True)
    assert ok, label


def test_c01_calibration_values_and_speed(capsys):
    label = "[1] calibration factor: reference values, sub-millisecond eval"
    v1 = kappa(0.01, 0.1)
    v2 = kappa(0.5, 1.0)
    values_ok = abs(v1 - 23.48) <= 5e-3 and abs(v2 - 0.71) <= 5e-3
    kappa(0.02, 0.2)  # warm-up outside the timed region
    best = math.inf
    for _ in range(5):
        t0 = time.perf_counter()
        kappa(0.01, 0.1)
        kappa(0.5, 1.0)
        best = min(best, time.perf_counter() - t0)
    timing_ok = best < 1e-3
    _report(capsys, values_ok and timing_ok,
            f"{label} (v1={v1:.6f}, v2={v2:.6f}, best={best*1e6:.0f}us)")


def test_c02_privacy_inequality_audit(capsys):
    label = "[2] privacy inequality holds at calibrated noise, 20 settings"
    eps_grid = [0.1, 0.3, 0.7, 1.2, 3.0]
    delta_grid = [0.01, 0.05, 0.2, 0.5]
    t0 = time.perf_counter()
    all_hold = True
    worst = math.inf
    for eps in eps_grid:
        for delta in delta_grid:
            sigma = kappa(delta, eps) * 1.0
            res = verify_dp_inequality(1.0, sigma, eps, delta)
            all_hold = all_hold and res.holds
            worst = min(worst, res.min_slack)
    elapsed = time.perf_counter() - t0
    ok = all_hold and worst >= 0.0 and elapsed < 1.0
    _report(capsys, ok,
            f"{label} (min slack={worst:.3e}, {elapsed*1e3:.0f}ms)")


def test_c03_riccati_closed_forms_and_independent_solver(capsys):
    label = "[3] Riccati: closed forms, 100 random systems vs scipy, duality"
    t0 = time.perf_counter()
    one = np.array([[1.0]])
    golden = solve_dare_control(one, one, one, one)
    closed_ok = (
        abs(golden.K[0, 0] - PHI) <= 1e-10 * PHI
        and abs(golden.L[0, 0] + 1.0 / PHI) <= 1e-10
    )
    unstable = solve_dare_control(np.array([[2.0]]), one, one, one)
    closed_ok = closed_ok and abs(unstable.K[0, 0] - (2.0 + math.sqrt(5.0))) <= 1e-9

    rng = np.random.default_rng(1234)
    solved = 0
    max_residual = 0.0
    max_scipy_gap = 0.0
    max_duality_gap = 0.0
    while solved < 100:
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, 4))
        A = rng.standard_normal((n, n))
        A *= rng.uniform(0.3, 1.3) / max(np.abs(np.linalg.eigvals(A)).max(), 1e-12)
        B = rng.standard_normal((n, m))
        G = rng.standard_normal((n, n))
        Q = G @ G.T + 0.5 * np.eye(n)
        H = rng.standard_normal((m, m))
        R = H @ H.T + 0.5 * np.eye(m)
        if not (is_controllable(A, B) and is_observable(A, B.T)):
            continue
        syn = solve_dare_control(A, B, Q, R)
        res = dare_residual_control(syn.K, A, B, Q, R)
        ref = solve_discrete_are(A, B, Q, R)
        gap = np.abs(syn.K - ref).max() / max(1.0, np.abs(ref).max())
        filt = solve_dare_filter(A.T, B.T, Q, R)
        dual_gap = np.abs(filt.Sigma - syn.K).max() / max(1.0, np.abs(syn.K).max())
        max_residual = max(max_residual, res)
        max_scipy_gap = max(max_scipy_gap, gap)
        max_duality_gap = max(max_duality_gap, dual_gap)
        solved += 1
    elapsed = time.perf_counter() - t0
    ok = (
        closed_ok
        and max_residual <= 1e-9
        and max_scipy_gap <= 1e-7
        and max_duality_gap <= 1e-8
        and elapsed < 10.0
    )
    _report(capsys, ok,
            f"{label} (residual<={max_residual:.1e}, scipy gap<={max_scipy_gap:.1e}, "
            f"duality gap<={max_duality_gap:.1e}, {elapsed:.1f}s)")


def test_c04_filter_error_matches_predicted_covariance(capsys):
    label = "[4] stationary filter: empirical error variance within 5% over 1e5 steps"
    t0 = time.perf_counter()
    a, w_var = 0.95, 0.3
    agent = AgentModel(
        A=np.array([[a]]), B=np.array([[1.0]]), C=np.eye(1),
        W=np.array([[w_var]]),
        privacy=PrivacySpec(epsilon=0.7, delta=0.05, adjacency_bound=1.0),
        x0_mean=np.zeros(1),
    )
    model = assemble_network([agent], Q=np.eye(1), R=np.eye(1))
    syn = synthesize(model)
    sigma = model.sigmas[0]
    g = syn.kalman_gain[0, 0]
    l_gain = syn.L[0, 0]
    sqrt_w = math.sqrt(w_var)

    steps = 100_000
    stream = GaussianStream(314159)
    noise = stream.standard_normal(2 * steps)
    x = 0.0
    x_hat = 0.0
    u_prev = 0.0
    total = 0.0
    counted = 0
    burn_in = 500
    for k in range(steps):
        y = x + sigma * noise[2 * k]
        if k > 0:
            pred = a * x_hat + u_prev
            x_hat = pred + g * (y - pred)
        if k >= burn_in:
            err = x - x_hat
            total += err * err
            counted += 1
        u_prev = l_gain * x_hat
        x = a * x + u_prev + sqrt_w * noise[2 * k + 1]
    empirical = total / counted
    predicted = syn.SigmaBar[0, 0]
    rel = abs(empirical - predicted) / predicted
    elapsed = time.perf_counter() - t0
    ok = rel <= 0.05 and elapsed < 30.0
    _report(capsys, ok,
            f"{label} (empirical={empirical:.4f}, predicted={predicted:.4f}, "
            f"rel={rel:.3%}, {elapsed:.1f}s)")


def test_c05_entropy_floor_and_strict_cap(capsys):
    label = "[5] entropy floor always, strict cap when applicable, 200 instances"
    rng = np.random.default_rng(777)
    floor_ok = True
    cap_ok = True
    applicable = 0
    for _ in range(200):
        n = int(rng.integers(1, 5))
        A = rng.standard_normal((n, n))
        A *= rng.uniform(0.2, 1.1) / max(np.abs(np.linalg.eigvals(A)).max(), 1e-12)
        G = rng.standard_normal((n, n))
        W = G @ G.T + 0.3 * np.eye(n)
        C = np.diag(rng.uniform(0.5, 2.0, size=n))
        V = np.diag(rng.uniform(0.2, 4.0, size=n))
        Sigma = solve_dare_filter(A, C, W, V).Sigma
        lam_max = float(np.linalg.eigvalsh(Sigma)[-1])
        floor = variance_floor(A, W, C, V)
        floor_ok = floor_ok and lam_max >= floor * (1.0 - 1e-9)
        holds, _ = covariance_bound_condition(A, W, C, V)
        if not holds:
            continue
        applicable += 1
        cap = covariance_upper_bound(A, W, C, V)
        psd_gap = float(np.linalg.eigvalsh(cap - Sigma).min())
        rep = entropy_bound_report(A, W, C, V)
        cap_ok = (
            cap_ok
            and psd_gap >= -1e-8 * max(1.0, float(np.abs(cap).max()))
            and rep.logdet_covariance < rep.entropy_bound
        )
    ok = floor_ok and cap_ok and applicable >= 50
    _report(capsys, ok,
            f"{label} (applicable={applicable}/200, floor_ok={floor_ok}, "
            f"cap_ok={cap_ok})")


def test_c06_psd_order_inequality_chain(capsys):
    label = "[6] PSD order: determinant monotone and logdet<=trace-n, 1000 instances"
    rng = np.random.default_rng(4242)
    det_ok = True
    amgm_ok = True
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        G = rng.standard_normal((n, n))
        M = G @ G.T + 0.05 * np.eye(n)
        H = rng.standard_normal((n, n))
        bigger = M + H @ H.T
        sign_m, ld_m = np.linalg.slogdet(M)
        sign_b, ld_b = np.linalg.slogdet(bigger)
        det_ok = det_ok and sign_m == 1.0 and sign_b == 1.0 and ld_m <= ld_b + 1e-9
        amgm_ok = amgm_ok and logdet(M) <= float(np.trace(M)) - n + 1e-9
    ok = det_ok and amgm_ok
    _report(capsys, ok, f"{label} (det_ok={det_ok}, amgm_ok={amgm_ok})")


def test_c07_feedback_gain_blind_to_privacy_noise(capsys):
    label = "[7] separation: feedback gain bitwise identical under 100x noise variance"
    cfg = load(CONFIG_DIR / "case_study_2agent.json")
    from dplqg.config import resolve_costs

    Q, R = resolve_costs(cfg)
    agents_base = cfg.agents
    # scaling every adjacency bound by 10 scales each sigma by 10 and the
    # measurement noise variance V by exactly 100
    agents_noisy = [
        replace(ag, privacy=replace(ag.privacy,
                                    adjacency_bound=10.0 * ag.privacy.adjacency_bound))
        for ag in agents_base
    ]
    model_base = assemble_network(agents_base, Q, R)
    model_noisy = assemble_network(agents_noisy, Q, R)
    v_ratio = np.diag(model_noisy.V) / np.diag(model_base.V)
    syn_base = synthesize(model_base)
    syn_noisy = synthesize(model_noisy)
    gain_ok = np.array_equal(syn_base.L, syn_noisy.L) and np.array_equal(
        syn_base.K, syn_noisy.K
    )
    filter_moved = not np.array_equal(syn_base.Sigma, syn_noisy.Sigma)
    ok = gain_ok and filter_moved and np.allclose(v_ratio, 100.0, rtol=1e-12)
    _report(capsys, ok,
            f"{label} (L identical={gain_ok}, filter moved={filter_moved})")


def test_c08_two_agent_case_study_regulated(capsys):
    label = "[8] two-agent case study: states bounded over 10 seeds, 200 steps"
    t0 = time.perf_counter()
    cfg = load(CONFIG_DIR / "case_study_2agent.json")
    from dplqg.config import build_network

    model, agents = build_network(cfg)
    syn = synthesize(model)
    worst = 0.0
    for seed in range(1, 11):
        trace = run_simulation(model, agents, 200, seed, synthesis=syn)
        worst = max(worst, float(np.linalg.norm(trace.x, axis=1).max()))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e3 and elapsed < 5.0
    _report(capsys, ok,
            f"{label} (max state norm={worst:.1f}, {elapsed:.1f}s)")


def test_c09_privacy_sweep_monotone(capsys):
    label = "[9] privacy sweep: entropy strictly falls, cost does not rise (2% slack)"
    t0 = time.perf_counter()
    cfg = load(CONFIG_DIR / "sweep_4agent.json")
    rows = sweep_epsilon(
        replace(cfg, horizon=2500), grid=[0.1, 0.3, 0.7, 1.2, 2.0, 3.0], n_seeds=10
    )
    elapsed = time.perf_counter() - t0
    lds = [row["logdet_cov"] for row in rows]
    costs = [row["mean_cost"] for row in rows]
    entropy_ok = all(a > b for a, b in zip(lds, lds[1:]))
    cost_ok = all(b <= a * 1.02 for a, b in zip(costs, costs[1:]))
    ok = entropy_ok and cost_ok and len(rows) == 6 and elapsed < 300.0
    _report(capsys, ok,
            f"{label} (logdet {lds[0]:.2f}->{lds[-1]:.2f}, "
            f"cost {costs[0]:.0f}->{costs[-1]:.0f}, {elapsed:.0f}s)")


def test_c10_wire_log_complete_replayable_clean(capsys, tmp_path):
    label = "[10] wire log: 2NT messages, bit-exact replay, no true state leaks"
    cfg = load(CONFIG_DIR / "case_study_2agent.json")
    from dplqg.config import resolve_costs

    Q, R = resolve_costs(cfg)
    # secret initial states: with a nonzero x0 covariance every true state
    # value is secret, so no float on the wire may equal any of them
    agents = [replace(ag, x0_cov=np.eye(ag.n)) for ag in cfg.agents]
    model = assemble_network(agents, Q, R)
    syn = synthesize(model)
    T = 120
    trace = run_simulation(model, agents, T, seed=5, synthesis=syn)
    count_ok = len(trace.messages) == 2 * len(agents) * T

    log = eavesdropper_view(trace)
    replayed = replay_estimates(log, model, syn.filter, trace.x_hat0)
    replay_ok = np.array_equal(replayed, trace.x_hat)

    # the wire values as the listener holds them: the published payload cells
    write_messages_csv(log, tmp_path / "messages.csv")
    rows = (tmp_path / "messages.csv").read_text().splitlines()[1:]
    true_values = set(trace.x.ravel().tolist())
    wire_values = {float(cell) for row in rows for cell in row.split(",")[4:] if cell}
    clean_ok = len(wire_values) > 0 and true_values.isdisjoint(wire_values)
    ok = count_ok and replay_ok and clean_ok
    _report(capsys, ok,
            f"{label} (messages={len(trace.messages)}, replay exact={replay_ok}, "
            f"disjoint={clean_ok})")
