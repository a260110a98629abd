"""The plain-numpy floor and the oracle checks every measured model passes.

The floor is EM written directly against numpy/scipy on the whole matrix:
no row blocks, no kernel backends, no engine.  It starts from the same
``random_initialization`` draw as ``SPCA.fit`` and does the same work per
iteration (the EM update plus the full-row reconstruction error), so its
wall time is the yardstick of ``floor_ratio`` and its model is the oracle
the engines are compared with.  It shares no code with ``repro.jobs`` or
``repro.linalg``.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.core.initialization import random_initialization

#: Relative Frobenius distance allowed between a fitted model and the floor.
COMPONENT_RTOL = 1e-9

#: Rows per chunk when the floor densifies rows for the error measure.
_ERROR_CHUNK_ROWS = 4096


def _dense(matrix) -> np.ndarray:
    return matrix.toarray() if sp.issparse(matrix) else np.asarray(matrix)


def floor_fit(data, n_components: int, iterations: int, seed: int):
    """Run *iterations* EM steps; returns ``(components, noise_variance, errors)``."""
    n_rows, n_cols = data.shape
    rng = np.random.default_rng(seed)
    components, noise_variance = random_initialization(n_cols, n_components, rng)
    colsum = np.asarray(data.sum(axis=0)).ravel()
    mean = colsum / n_rows
    if sp.issparse(data):
        square_norm = float(data.multiply(data).sum())
        ss1 = square_norm - 2.0 * float(mean @ colsum) + n_rows * float(mean @ mean)
    else:
        ss1 = float(np.sum((data - mean) ** 2))
    # Column sums of |Y| are the error's denominator and never change.
    magnitude = np.asarray(abs(data).sum(axis=0)).ravel()
    identity = np.eye(n_components)
    errors = []
    for _ in range(iterations):
        moment_inv = np.linalg.inv(components.T @ components + noise_variance * identity)
        projector = components @ moment_inv
        latent = np.asarray(data @ projector) - mean @ projector
        latent_sum = latent.sum(axis=0)
        ytx = np.asarray(data.T @ latent) - np.outer(mean, latent_sum)
        xtx = latent.T @ latent + n_rows * noise_variance * moment_inv
        components = ytx @ np.linalg.inv(xtx)
        ss2 = float(np.trace(xtx @ components.T @ components))
        ss3 = float(np.sum(np.asarray(data @ components) * latent)) - float(
            latent_sum @ (components.T @ mean)
        )
        noise_variance = max((ss1 + ss2 - 2.0 * ss3) / (n_rows * n_cols), 1e-12)
        errors.append(_reconstruction_error(data, mean, components, magnitude))
    return components, noise_variance, errors


def _reconstruction_error(
    data, mean: np.ndarray, components: np.ndarray, magnitude: np.ndarray
) -> float:
    """Induced 1-norm ratio ``||Y - Yhat||_1 / ||Y||_1`` over every row."""
    ls_projector = components @ np.linalg.inv(components.T @ components)
    offset = mean - (mean @ ls_projector) @ components.T
    residual = np.zeros(data.shape[1])
    for start in range(0, data.shape[0], _ERROR_CHUNK_ROWS):
        chunk = data[start : start + _ERROR_CHUNK_ROWS]
        # Yhat = (Y - Ym) P C' + Ym, built in place as (Y P) C' + offset.
        work = np.asarray(chunk @ ls_projector) @ components.T
        work += offset
        work -= _dense(chunk)
        np.abs(work, out=work)
        residual += work.sum(axis=0)
    return float(residual.max()) / max(float(magnitude.max()), 1e-300)


def top_eigen_mass(data, n_components: int) -> tuple[np.ndarray, float]:
    """The centered scatter matrix and the sum of its top-d eigenvalues."""
    mean = np.asarray(data.mean(axis=0)).ravel()
    scatter = _dense(data.T @ data) - data.shape[0] * np.outer(mean, mean)
    eigenvalues = np.linalg.eigvalsh(scatter)
    return scatter, float(eigenvalues[-n_components:].sum())


def captured_variance_pct(scatter: np.ndarray, top_mass: float, components) -> float:
    """Variance the subspace of *components* captures, as % of the top-d mass."""
    basis, _ = np.linalg.qr(components)
    return 100.0 * float(np.trace(basis.T @ scatter @ basis)) / top_mass


def relative_distance(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(a - b)) / max(float(np.linalg.norm(b)), 1e-300)


def _non_finite(model) -> bool:
    return not (
        np.all(np.isfinite(model.components))
        and np.all(np.isfinite(model.mean))
        and np.isfinite(model.noise_variance)
    )


def batch_miss(model, errors: list[float], floor) -> str | None:
    """Why a batch fit fails the oracle, or None when it passes.

    *errors* are the fit's per-iteration reconstruction errors and *floor*
    is the ``(components, noise_variance, errors)`` of :func:`floor_fit`.
    """
    floor_components, floor_noise, floor_errors = floor
    if _non_finite(model):
        return "non-finite model"
    distance = relative_distance(model.components, floor_components)
    if distance > COMPONENT_RTOL:
        return f"components differ from the floor by {distance:.3e} (relative)"
    for name, got, want in [("noise variance", model.noise_variance, floor_noise)] + [
        (f"error[{i}]", a, b) for i, (a, b) in enumerate(zip(errors, floor_errors))
    ]:
        if got is None or abs(got - want) > COMPONENT_RTOL * abs(want):
            return f"{name} is {got!r}, the floor has {want!r}"
    if len(errors) != len(floor_errors):
        return f"{len(errors)} iterations, the floor ran {len(floor_errors)}"
    return None


def stream_miss(model, reference) -> str | None:
    """Why a stream model is not bitwise the sequential reference, or None."""
    if _non_finite(model):
        return "non-finite model"
    same = (
        np.array_equal(model.components, reference.components)
        and np.array_equal(model.mean, reference.mean)
        and model.noise_variance == reference.noise_variance
    )
    return None if same else "stream model differs from partial_fit_stream"
