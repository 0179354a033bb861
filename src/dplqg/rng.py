"""Deterministic Gaussian sampling for simulations.

Reproducibility contract
------------------------
Simulated traces must be bit-identical for a given master seed, across runs
and across platforms. numpy's default normal() uses the ziggurat algorithm,
whose output is an implementation detail, so Gaussians here are produced by
an explicit Box-Muller transform applied to uniforms from the Philox
counter-based bit generator. Both pieces are published algorithms with fixed
output, which keeps the stream portable to other languages if a twin
implementation ever needs to match draws.

Per-entity streams are derived from the master seed with
``SeedSequence((master_seed, entity_index, stream_kind))``. The stream kinds
are module constants below; keeping process noise, measurement-privacy noise,
initial-state draws and cost-matrix generation on separate streams means that
changing one knob (say, the privacy level) never shifts the draws consumed by
another part of the simulation.

Box-Muller, as implemented here: for each pair of uniforms (u1, u2) from
``Generator.random`` (53-bit doubles in [0, 1)),

    r  = sqrt(-2 ln(1 - u1))        # 1 - u1 lies in (0, 1], so the log is finite
    z0 = r cos(2 pi u2)
    z1 = r sin(2 pi u2)

and a draw of size n consumes ceil(n / 2) pairs, in order
(z0, z1, z0, z1, ...), discarding the trailing value when n is odd. Pairs are
never cached across calls, so the values returned by a call depend only on
the stream state at entry and the requested size.

Row draws: standard_normal_rows(rows, width) takes a whole horizon in one
call, as standard_normal(rows * 2 * ceil(width / 2)) reshaped to one padded
row per step, with each row's trailing odd value dropped. Row k is
bit-equal to the k-th of `rows` successive standard_normal(width) calls,
and the stream ends where those calls would leave it, because a call of
width n consumes exactly ceil(n / 2) pairs and Box-Muller maps each pair on
its own.
"""

import math

import numpy as np

from .errors import check_count, check_square, check_symmetric

# Stream kinds for derive_stream. Fixed numeric codes; changing them would
# silently re-randomize every seeded experiment, so they are append-only.
PROCESS_NOISE = 0
PRIVACY_NOISE = 1
INIT_STATE = 2
COST_MATRIX = 3

_TWO_PI = 2.0 * math.pi
# psd_factor rejects an eigenvalue below -PSD_TOL * max(1, max |eigenvalue|).
PSD_TOL = 1e-12


class GaussianStream:
    """Seedable stream of standard normal draws (Philox + Box-Muller)."""

    def __init__(self, entropy):
        """entropy: an int, or a tuple of ints mixed by SeedSequence."""
        self._gen = np.random.Generator(
            np.random.Philox(seed=np.random.SeedSequence(entropy))
        )

    def standard_normal(self, size):
        """Return `size` i.i.d. N(0, 1) draws as a 1-d float64 array."""
        size = check_count(size, "size")
        pairs = (size + 1) // 2
        u = self._gen.random((pairs, 2))
        r = np.sqrt(-2.0 * np.log1p(-u[:, 0]))
        angle = _TWO_PI * u[:, 1]
        z = np.empty(2 * pairs)
        z[0::2] = r * np.cos(angle)
        z[1::2] = r * np.sin(angle)
        return z[:size]

    def standard_normal_rows(self, rows, width):
        """Return a (rows, width) array: row k is the k-th of `rows`
        successive standard_normal(width) calls, and the stream is left
        where those calls would leave it. rows = 0 draws nothing."""
        rows, width = check_count(rows, "rows"), check_count(width, "width")
        padded = 2 * ((width + 1) // 2)
        return self.standard_normal(rows * padded).reshape(rows, padded)[:, :width]

    def correlated(self, factor):
        """Draw w = factor @ z with z standard normal, i.e. w ~ N(0, factor factor^T)."""
        factor = np.asarray(factor, dtype=float)
        return factor @ self.standard_normal(factor.shape[1])


def derive_stream(master_seed, entity_index, stream_kind):
    """Stream for one entity and purpose, derived from the master seed.

    The derivation is SeedSequence((master_seed, entity_index, stream_kind)),
    so streams for distinct (entity, kind) pairs are statistically independent
    and each is reproducible in isolation. All three must be integers >= 0;
    a float, bool or string raises ValueError, never selects another stream.
    """
    return GaussianStream((check_count(master_seed, "master_seed"),
                           check_count(entity_index, "entity_index"),
                           check_count(stream_kind, "stream_kind")))


def psd_factor(M):
    """Factor a symmetric PSD matrix as F with F F^T = M, for noise shaping.

    Uses the (lower) Cholesky factor when M is positive definite. For
    semidefinite or slightly indefinite input, falls back to an
    eigendecomposition with eigenvalues below zero clipped to zero; an
    eigenvalue more negative than -PSD_TOL * max(1, ||M||) is a real error
    and raises ValueError, as does an M that is not square and finite.
    """
    M = check_square(M, "covariance")
    check_symmetric(M, "covariance")
    try:
        return np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        pass
    vals, vecs = np.linalg.eigh(0.5 * (M + M.T))
    floor = -PSD_TOL * max(1.0, float(np.abs(vals).max()))
    if vals.min() < floor:
        raise ValueError(
            "covariance is not positive semidefinite "
            f"(eigenvalue {vals.min():.3e})"
        )
    return vecs @ np.diag(np.sqrt(np.clip(vals, 0.0, None)))
