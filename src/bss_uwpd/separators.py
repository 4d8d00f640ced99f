"""Unmixing-matrix estimation: FastICA and the SOBI second-order baseline.

Both estimators whiten first and then search for an orthonormal rotation:
FastICA by a symmetric fixed-point iteration maximizing a negentropy-style
contrast, SOBI by jointly diagonalizing lagged covariance matrices with one
closed-form Givens rotation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ParameterError
from .stats import WhiteningModel, as_pair, fit_whitening

DEFAULT_SOBI_LAGS = tuple(range(1, 21))


# Each contrast returns (g(u), row mean of g'(u)) without forming g'(u).
def _tanh_pair(u):
    t = np.tanh(u)
    return t, 1.0 - np.einsum("ij,ij->i", t, t) / u.shape[1]


def _gauss_pair(u):
    u2 = u * u
    e = np.exp(-0.5 * u2)
    return u * e, (e.sum(axis=1) - np.einsum("ij,ij->i", u2, e)) / u.shape[1]


def _cube_pair(u):
    return u * u * u, 3.0 * np.einsum("ij,ij->i", u, u) / u.shape[1]

_CONTRASTS = {"tanh": _tanh_pair, "gauss": _gauss_pair, "cube": _cube_pair}


@dataclass(frozen=True)
class IcaOptions:
    """Fixed-point iteration settings."""

    contrast: str = "tanh"
    tolerance: float = 1e-6
    max_iterations: int = 200
    seed: int = 42

    def __post_init__(self):
        if self.contrast not in _CONTRASTS:
            raise ParameterError(
                f"contrast must be one of {sorted(_CONTRASTS)}, got {self.contrast!r}"
            )
        if self.tolerance <= 0.0:
            raise ParameterError("tolerance must be positive")
        if self.max_iterations < 1:
            raise ParameterError("max_iterations must be >= 1")


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
        rotation = np.asarray(self.rotation, dtype=np.float64).copy()
        rotation.setflags(write=False)
        object.__setattr__(self, "rotation", rotation)

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


def fastica(x, opts: IcaOptions | None = None) -> UnmixingModel:
    """Estimate an unmixing model by symmetric fixed-point iteration.

    x is 2-channel data shaped (2, N), N >= 64. After whitening to z, each
    rotation row w is updated as E{z g(w.z)} - E{g'(w.z)} w and the stacked
    rows are re-orthonormalized symmetrically; iteration stops once
    1 - min |diag(W_new W_old^T)| < tolerance. Non-convergence returns the
    last iterate flagged converged=False.
    """
    if opts is None:
        opts = IcaOptions()
    x = as_pair(x, 64, "fastica")
    n = x.shape[1]
    whitening = fit_whitening(x)
    z = whitening.transform(x)
    g_pair = _CONTRASTS[opts.contrast]
    rng = np.random.default_rng(opts.seed)
    w = _random_orthonormal(rng)
    converged = False
    iterations = 0
    for iterations in range(1, opts.max_iterations + 1):
        w_old = w
        u = w @ z
        gu, gpu_mean = g_pair(u)
        w = gu @ z.T / n - gpu_mean[:, None] * w
        w = _sym_orthogonalize(w)
        drift = 1.0 - np.min(np.abs(np.diag(w @ w_old.T)))
        if drift < opts.tolerance:
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
    """
    a = np.asarray(matrices, dtype=np.float64)
    if a.shape[1:] != (2, 2) or len(a) == 0:
        raise DimensionError(f"expected a stack of 2x2 matrices, got shape {a.shape}")
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


def sobi(x, lags=DEFAULT_SOBI_LAGS) -> UnmixingModel:
    """Second-order blind identification from time-lagged covariances.

    Whitens the data, forms the symmetrized lagged covariance for each lag,
    and jointly diagonalizes the set. When every lagged covariance is close
    to a scalar multiple of identity (spectrally identical channels) the
    returned model carries ill_conditioned=True.
    """
    x = as_pair(x, 2, "sobi")
    n = x.shape[1]
    lags = tuple(int(lag) for lag in lags)
    if not lags:
        raise ParameterError("need at least one lag")
    if min(lags) < 1:
        raise ParameterError("lags must be positive")
    if max(lags) >= n / 4:
        raise DimensionError(f"max lag {max(lags)} too large for {n} samples")
    whitening = fit_whitening(x)
    z = whitening.transform(x)
    covs = []
    for lag in lags:
        r = z[:, lag:] @ z[:, :-lag].T / (n - lag)
        covs.append(0.5 * (r + r.T))
    # distance of each matrix from scalar * identity; below the sampling
    # noise floor second-order statistics cannot identify a rotation
    strength = max(
        np.hypot(0.5 * (c[0, 0] - c[1, 1]), c[0, 1]) for c in covs
    )
    ill = strength < min(0.2, 10.0 / np.sqrt(n))
    v, off_history = joint_diagonalize(covs)
    return UnmixingModel(
        whitening=whitening,
        rotation=v.T,
        converged=True,
        iterations=len(off_history) - 1,
        ill_conditioned=bool(ill),
    )


def apply_unmixing(model: UnmixingModel, x, mean=None) -> np.ndarray:
    """Apply a fitted model to 2-channel data: combined @ (x - mean).

    mean defaults to the model's fitted mean; pass an explicit mean when the
    model was fitted on subband coefficients but is applied to raw mixtures.
    """
    x = np.asarray(x, dtype=np.float64)
    if mean is None:
        mean = model.whitening.mean
    mean = np.asarray(mean, dtype=np.float64)
    return model.combined @ (x - mean[:, None])
