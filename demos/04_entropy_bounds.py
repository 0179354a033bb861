"""What the wire provably does not reveal: entropy bounds on the estimate error.

The eavesdropper's best state estimate carries an error covariance Sigma.
This script evaluates the closed-form floor and cap on log det Sigma across
privacy levels and shows the cap growing with the injected noise, plus the
regime where the cap's spectral condition fails and the tool says so.
"""

import numpy as np

from dplqg import (
    covariance_bound_condition,
    entropy_bound_report,
    homogeneous_entropy_estimate,
    logdet,
    solve_dare_filter,
    variance_floor,
)

np.set_printoptions(precision=4, suppress=True)

A = np.array([[0.9, 0.05], [0.0, 0.8]])
W = np.diag([0.5, 0.5])
C = np.eye(2)

print("stable two-state plant, diagonal output map")
print("privacy noise sweep: sigma in {0.5, 1, 2, 4}")
print()
header = f"{'sigma':>6} {'logdet Sigma':>13} {'floor':>8} {'cap':>9} {'margin':>8}"
print(header)
print("-" * len(header))
for sigma in [0.5, 1.0, 2.0, 4.0]:
    V = sigma ** 2 * np.eye(2)
    Sigma = solve_dare_filter(A, C, W, V).Sigma
    ld = logdet(Sigma)
    floor = variance_floor(A, W, C, V)
    rep = entropy_bound_report(A, W, C, V)
    print(f"{sigma:6.1f} {ld:13.4f} {floor:8.4f} {rep.entropy_bound:9.4f} "
          f"{rep.condition_margin:8.4f}")

print()
print("Both the solved entropy and its certified cap rise with sigma: adding")
print("privacy noise provably degrades anyone's estimate, eavesdropper included.")

print()
print("Identical-agent shortcut")
print("------------------------")
print("For W = w I and C = I there is a one-line estimate; doubling sigma")
print("roughly quadruples its noise-driven term:")
A_small = np.diag([0.1, 0.1])
for sigma in [10.0, 20.0]:
    est = homogeneous_entropy_estimate(A_small, 1.0, sigma)
    print(f"  sigma = {sigma:5.1f}: estimate = {est:10.3f}")

print()
print("When the cap does not apply")
print("---------------------------")
A_marginal = np.array([[1.0, 0.1], [0.0, 1.0]])
W_full = np.array([[1.0, 0.5], [0.5, 1.0]])
V_heavy = 23.48 ** 2 * np.eye(2)
holds, margin = covariance_bound_condition(A_marginal, W_full, C, V_heavy)
print(f"marginally stable plant, heavy noise: condition holds = {holds}, "
      f"margin = {margin:.4f}")
rep = entropy_bound_report(A_marginal, W_full, C, V_heavy)
print(f"report refuses to certify: condition_holds = {rep.condition_holds}, "
      f"entropy_bound = {rep.entropy_bound}")
print("the floor still applies:", round(rep.variance_floor, 4))
