"""Unmixing-matrix estimation: FastICA and the SOBI second-order baseline.

Both estimators whiten first and then search for an orthonormal rotation:
FastICA by a symmetric fixed-point iteration maximizing a negentropy-style
contrast, SOBI by jointly diagonalizing lagged covariance matrices with one
closed-form Givens rotation.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .audio_io import set_read_only
from .errors import DimensionError, ParameterError
from .stats import BLOCK_COLUMNS, WhiteningModel, affine, as_pair, fit_whitening

# The one fit configuration, read by sobi and fastica at call time
SOBI_LAGS = tuple(range(1, 21))
TOLERANCE = 1e-6
MAX_ITERATIONS = 200


# Each contrast takes a block u of w @ z, writes g(u) over it and returns it
# with the row sums s of g'(u) - c, c being the constant in the table below,
# without forming g'(u): E{g'(u)} = c + s / N over all blocks. Keeping c out
# of the sums makes tanh's one-block mean 1 - S / N, bit for bit.
def _tanh_sums(u):
    t = np.tanh(u, out=u)
    return t, -np.einsum("ij,ij->i", t, t)


def _gauss_sums(u):
    u2 = u * u
    e = np.exp(-0.5 * u2)
    s = e.sum(axis=1) - np.einsum("ij,ij->i", u2, e)
    return np.multiply(u, e, out=u), s


def _cube_sums(u):
    s = 3.0 * np.einsum("ij,ij->i", u, u)
    return np.multiply(u * u, u, out=u), s

_CONTRASTS = {
    "tanh": (_tanh_sums, 1.0),
    "gauss": (_gauss_sums, 0.0),
    "cube": (_cube_sums, 0.0),
}
CONTRASTS = tuple(_CONTRASTS)


@dataclass(frozen=True)
class IcaOptions:
    """FastICA's contrast and the seed of its initial rotation."""

    contrast: str = "tanh"
    seed: int = 42

    def __post_init__(self):
        if self.contrast not in _CONTRASTS:
            raise ParameterError(
                f"contrast must be one of {sorted(_CONTRASTS)}, got {self.contrast!r}"
            )
        if not isinstance(self.seed, Integral) or self.seed < 0:
            raise ParameterError(f"seed must be an integer >= 0, got {self.seed!r}")


@dataclass(frozen=True)
class UnmixingModel:
    """Whitening plus an orthonormal rotation; combined = rotation @ whitening.

    converged/iterations describe the fit; ill_conditioned warns that the
    estimator saw (near) indistinguishable second-order statistics.
    """

    whitening: WhiteningModel
    rotation: np.ndarray
    converged: bool = True
    iterations: int = 0
    ill_conditioned: bool = False

    def __post_init__(self):
        set_read_only(self, rotation=self.rotation)

    @property
    def combined(self) -> np.ndarray:
        return self.rotation @ self.whitening.matrix


def _random_orthonormal(rng):
    q, r = np.linalg.qr(rng.standard_normal((2, 2)))
    return q * np.sign(np.diag(r))


def _sym_orthogonalize(w):
    s = w @ w.T
    evals, evecs = np.linalg.eigh(s)
    evals = np.maximum(evals, 1e-12 * evals[-1])
    return (evecs / np.sqrt(evals)) @ evecs.T @ w


def _fastica_step(w, z, contrast: str) -> np.ndarray:
    """The fixed-point update E{z g(w.z)} - E{g'(w.z)} w of the rotation rows
    w on whitened (2, N) data z, before re-orthonormalization. The
    expectations are summed over column blocks, each read for w.z, g and
    z g while it is in cache; no full-length u or g(u) is made."""
    g_sums, offset = _CONTRASTS[contrast]
    n = z.shape[1]
    u = np.empty((2, min(n, BLOCK_COLUMNS)))
    # -0.0 is the exact additive identity, so one block gives the same bits
    # as the whole-array expressions
    gz = np.full((2, 2), -0.0)
    gp = np.full(2, -0.0)
    for start in range(0, n, BLOCK_COLUMNS):
        zb = z[:, start : start + BLOCK_COLUMNS]
        gu, s = g_sums(np.matmul(w, zb, out=u[:, : zb.shape[1]]))
        gp += s
        gz += gu @ zb.T
    return gz / n - (offset + gp / n)[:, None] * w


def fastica(x, opts: IcaOptions | None = None) -> UnmixingModel:
    """Estimate an unmixing model by symmetric fixed-point iteration.

    x is 2-channel data shaped (2, N), N >= 64. After whitening to z, each
    rotation row w is updated as E{z g(w.z)} - E{g'(w.z)} w and the stacked
    rows are re-orthonormalized symmetrically; iteration stops once
    1 - min |diag(W_new W_old^T)| < TOLERANCE. After MAX_ITERATIONS steps
    without that, the last iterate is returned flagged converged=False.
    """
    if opts is None:
        opts = IcaOptions()
    x = as_pair(x, 64, "fastica")
    whitening = fit_whitening(x)
    z = whitening.transform(x)
    rng = np.random.default_rng(opts.seed)
    w = _random_orthonormal(rng)
    converged = False
    for iterations in range(1, MAX_ITERATIONS + 1):
        w_old = w
        w = _sym_orthogonalize(_fastica_step(w, z, opts.contrast))
        drift = 1.0 - np.min(np.abs(np.diag(w @ w_old.T)))
        if drift < TOLERANCE:
            converged = True
            break
    return UnmixingModel(
        whitening=whitening, rotation=w, converged=converged, iterations=iterations
    )


def joint_diagonalize(matrices):
    """Joint diagonalizer of real symmetric 2x2 matrices by one Givens
    rotation, whose angle is the closed-form optimum for a single index
    pair (Cardoso and Souloumiac, 1996).

    Returns (v, off_history) where v is orthonormal with v.T @ M @ v as
    diagonal as possible for every input M, and off_history holds the
    summed squared off-diagonal energy before and after the rotation.
    A matrix with a NaN or infinite entry raises ParameterError.
    """
    a = np.asarray(matrices, dtype=np.float64)
    if a.shape[1:] != (2, 2) or len(a) == 0:
        raise DimensionError(f"expected a stack of 2x2 matrices, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ParameterError("matrices must be finite")
    h1 = a[:, 0, 0] - a[:, 1, 1]
    h2 = a[:, 0, 1] + a[:, 1, 0]
    gram = np.array([[h1 @ h1, h1 @ h2], [h2 @ h1, h2 @ h2]])
    angles = np.linalg.eigh(gram)[1][:, -1]
    if angles[0] < 0.0:
        angles = -angles
    c = np.sqrt(0.5 * (angles[0] + 1.0))
    s = 0.5 * angles[1] / c
    v = np.eye(2) if abs(s) <= 1e-12 else np.array([[c, -s], [s, c]])
    off_history = [
        float(np.sum(m[:, 0, 1] ** 2 + m[:, 1, 0] ** 2)) for m in (a, v.T @ a @ v)
    ]
    return v, off_history


def _lagged_covariances(z, lags) -> np.ndarray:
    """Symmetrized lagged covariances of (2, N) data z, one 2x2 matrix per
    lag: sym(sum_t z[:, t] z[:, t - lag]^T) / (N - lag). The sums run over
    column blocks of t, each block read once for all lags while it is in
    cache; a lag's shifted slice reaches back into the block before."""
    n = z.shape[1]
    # -0.0 is the exact additive identity, so one block gives the same bits
    # as z[:, lag:] @ z[:, :-lag].T
    sums = np.full((len(lags), 2, 2), -0.0)
    for start in range(0, n, BLOCK_COLUMNS):
        stop = min(start + BLOCK_COLUMNS, n)
        for k, lag in enumerate(lags):
            lo = max(start, lag)
            if lo < stop:
                sums[k] += z[:, lo:stop] @ z[:, lo - lag : stop - lag].T
    r = sums / (n - np.array(lags))[:, None, None]
    return 0.5 * (r + r.transpose(0, 2, 1))


def sobi(x) -> UnmixingModel:
    """Second-order blind identification from time-lagged covariances.

    Whitens the data, forms the symmetrized lagged covariance for each lag
    of SOBI_LAGS, and jointly diagonalizes the set; the data needs more
    than 4 * max(SOBI_LAGS) samples. When every lagged covariance is close
    to a scalar multiple of identity (spectrally identical channels) the
    returned model carries ill_conditioned=True.
    """
    x = as_pair(x, 4 * max(SOBI_LAGS) + 1, "sobi")
    whitening = fit_whitening(x)
    z = whitening.transform(x)
    covs = _lagged_covariances(z, SOBI_LAGS)
    # distance of each matrix from scalar * identity; below the sampling
    # noise floor second-order statistics cannot identify a rotation
    strength = np.hypot(0.5 * (covs[:, 0, 0] - covs[:, 1, 1]), covs[:, 0, 1]).max()
    ill = strength < min(0.2, 10.0 / np.sqrt(x.shape[1]))
    v = joint_diagonalize(covs)[0]
    return UnmixingModel(
        whitening=whitening, rotation=v.T, iterations=1, ill_conditioned=bool(ill)
    )


def apply_unmixing(model: UnmixingModel, x, mean=None) -> np.ndarray:
    """Apply a fitted model to 2-channel data: combined @ (x - mean).

    mean defaults to the model's fitted mean; pass an explicit mean when the
    model was fitted on subband coefficients but is applied to raw mixtures.
    """
    if mean is None:
        mean = model.whitening.mean
    return affine(model.combined, x, mean)
