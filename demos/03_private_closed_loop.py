"""A two-agent plant regulated by the cloud over a privatized wire.

Each agent publishes only noisy measurements; the cloud filters them and
sends inputs back. The script runs the loop, prints cost and estimation
summaries, publishes the wire log as messages.csv in the working directory,
then plays the eavesdropper on those bytes: everything the log reveals (the
cloud's estimates, exactly) and what it does not (the true states).
"""

import numpy as np

from dplqg import (
    AgentModel,
    PrivacySpec,
    assemble_network,
    read_messages_csv,
    replay_estimates,
    run_simulation,
    synthesize,
    write_messages_csv,
)

np.set_printoptions(precision=4, suppress=True)


def make_agent(epsilon, delta):
    return AgentModel(
        A=np.array([[1.0, 0.1], [0.0, 1.0]]),
        B=np.array([[0.0], [1.0]]),
        C=np.eye(2),
        W=np.array([[1.0, 0.5], [0.5, 1.0]]),
        privacy=PrivacySpec(epsilon=epsilon, delta=delta, adjacency_bound=1.0),
        x0_mean=np.zeros(2),
        x0_cov=np.eye(2),  # secret initial state, drawn around the public mean
    )


agents = [make_agent(0.1, 0.01), make_agent(1.0, 0.5)]
model = assemble_network(agents, Q=np.eye(4), R=np.eye(2))
print("agent 0 wants (eps, delta) = (0.1, 0.01): noise sigma =",
      round(model.sigmas[0], 4))
print("agent 1 wants (eps, delta) = (1.0, 0.5):  noise sigma =",
      round(model.sigmas[1], 4))

syn = synthesize(model)
T = 200
trace = run_simulation(model, agents, horizon=T, seed=42, synthesis=syn)

print()
print(f"ran {T} steps; {len(trace.messages)} messages crossed the wire "
      f"(2 per agent per step)")
print(f"final running average cost: {trace.avg_cost[-1]:.3f}")
print(f"max state norm: {np.linalg.norm(trace.x, axis=1).max():.3f}")

err = trace.x - trace.x_hat
mse = (err[T // 4:] ** 2).mean(axis=0)
print("late-window mean squared estimation error per coordinate:")
print(" ", mse)
print("agent 0's coordinates are estimated far worse; that is its privacy")
print("budget at work.")

print()
print("Eavesdropper replay")
print("-------------------")
write_messages_csv(trace.messages, "messages.csv")
log = read_messages_csv("messages.csv", model)
replayed = replay_estimates(log, model, syn.filter, trace.x_hat0)
print("estimates reconstructed from the published messages.csv alone,")
print("bit for bit:", np.array_equal(replayed, trace.x_hat))

true_vals = set(trace.x.ravel().tolist())
wire_vals = set(log.y_bar.ravel().tolist()) | set(log.u.ravel().tolist())
print("true state values appearing anywhere in messages.csv:",
      len(true_vals & wire_vals))
print()
print("The leak is exactly the estimate sequence, never the states: what the")
print("listener still misses is quantified by the estimation error above,")
print("and the entropy bounds in demo 04 lower-bound that miss.")
