"""How much noise buys (epsilon, delta) privacy for a published trajectory.

Walks through the calibration pipeline: the Gaussian tail function, the
calibration factor, the sensitivity of an output map, and a numerical audit
of the resulting privacy inequality.
"""

import numpy as np

from dplqg import (
    PrivacySpec,
    calibrate_sigma,
    kappa,
    q_function,
    q_inverse,
    sensitivity_bound,
    verify_dp_inequality,
)
from dplqg.rng import GaussianStream


def banner(text):
    print()
    print(text)
    print("-" * len(text))


banner("Gaussian tail function")
for y in [0.0, 1.0, 1.96, 3.0]:
    print(f"  Q({y:4.2f}) = {q_function(y):.6f}")
print(f"  Q^-1(0.025) = {q_inverse(0.025):.6f}   (the familiar 1.96)")

banner("Calibration factor kappa(delta, epsilon)")
print("  Noise stddev per unit of sensitivity. Small epsilon or delta is")
print("  expensive; relaxing either drops the factor fast.")
for eps, delta in [(0.1, 0.01), (1.0, 0.05), (1.0, 0.5), (3.0, 0.5)]:
    print(f"  kappa(delta={delta:<5}, eps={eps:<4}) = {kappa(delta, eps):8.4f}")

banner("From output map to noise scale")
C = np.array([[1.0, 0.1], [0.0, 1.0]])
b = 1.0
spec = PrivacySpec(epsilon=1.0, delta=0.05, adjacency_bound=b)
delta2 = sensitivity_bound(C, b)
sigma = calibrate_sigma(spec, C)
print(f"  output map C = {C.tolist()}")
print(f"  trajectories within l2 distance {b} must stay indistinguishable")
print(f"  sensitivity  s1(C) * b = {delta2:.6f}")
print(f"  calibrated   sigma     = {sigma:.6f}")

banner("Auditing the privacy inequality on a threshold grid")
res = verify_dp_inequality(delta2, sigma, spec.epsilon, spec.delta)
print(f"  calibrated sigma: holds = {res.holds}, min slack = {res.min_slack:.4e}")
res_half = verify_dp_inequality(delta2, 0.5 * sigma, spec.epsilon, spec.delta)
print(f"  half the noise:   holds = {res_half.holds}, "
      f"min slack = {res_half.min_slack:.4e}")
print("  (the audit sweeps half-line events, the binding case for Gaussians)")

banner("Privatizing one measurement")
stream = GaussianStream(2024)
y = np.array([0.8, -0.3])
y_bar = y + sigma * stream.standard_normal(y.size)
print(f"  true output      {y}")
print(f"  published output {np.round(y_bar, 4)}")
print(f"  same seed, same draw: reruns are bit-identical")
