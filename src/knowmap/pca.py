"""Principal component analysis over embedding rows.

The eigendecomposition is a cyclic Jacobi iteration written out in full so
the projection pipeline carries no dependency on a linear-algebra solver;
tests check it against an independent solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import copysign, sqrt

import numpy as np

from .errors import DegenerateInputError, InvalidConfigError, InvalidDataError

JACOBI_OFF_TOLERANCE = 1e-12
JACOBI_MAX_SWEEPS = 100
DEFAULT_COMPONENTS = 2


@dataclass(frozen=True, eq=False)
class PCAModel:
    """Centered linear projection onto the top principal axes.

    components holds one unit-length axis per row, ordered by descending
    explained variance; total_variance is the trace of the covariance matrix.
    """

    mean: np.ndarray
    components: np.ndarray
    explained_variance: np.ndarray
    total_variance: float


def jacobi_eigh(symmetric: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvector columns of a symmetric matrix.

    Cyclic sweeps of Givens rotations, each zeroing one off-diagonal entry,
    until the off-diagonal Frobenius norm falls below tolerance.  The matrix
    sits above the eigenvectors in one array, so one column update turns both.
    """
    a = np.array(symmetric, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidDataError(f"expected a square matrix, got shape {a.shape}")
    if not np.allclose(a, a.T, atol=1e-10):
        raise ValueError("matrix must be symmetric")
    d = a.shape[0]
    stack = np.vstack([a, np.eye(d)])
    a, v = stack[:d], stack[d:]
    for _ in range(JACOBI_MAX_SWEEPS):
        if np.linalg.norm(a - np.diag(np.diag(a))) < JACOBI_OFF_TOLERANCE:  # off-diagonal norm
            break
        for p in range(d - 1):
            for q in range(p + 1, d):
                apq = a.item(p, q)
                if apq == 0.0:
                    continue
                tau = (a.item(q, q) - a.item(p, p)) / (2.0 * apq)
                t = copysign(1.0, tau) / (abs(tau) + sqrt(1.0 + tau * tau)) if tau != 0.0 else 1.0
                c = 1.0 / sqrt(1.0 + t * t)
                s = t * c
                col_p, col_q = stack[:, p].copy(), stack[:, q].copy()
                stack[:, p] = c * col_p - s * col_q
                stack[:, q] = s * col_p + c * col_q
                row_p, row_q = a[p, :].copy(), a[q, :].copy()
                a[p, :] = c * row_p - s * row_q
                a[q, :] = s * row_p + c * row_q
                a[p, q] = 0.0
                a[q, p] = 0.0
    values = np.diag(a).copy()
    order = np.argsort(values, kind="stable")
    return values[order], v[:, order]


def fit_pca(data: np.ndarray, components: int = DEFAULT_COMPONENTS) -> PCAModel:
    """Fit the top principal axes of the rows of data.

    Covariance uses the m-1 divisor.  Each axis's sign is fixed by making
    its largest-magnitude loading positive, so the fit is reproducible.
    """
    rows = np.asarray(data, dtype=float)
    if rows.ndim != 2:
        raise InvalidDataError(f"expected a 2-D array, got shape {rows.shape}")
    m, d = rows.shape
    if m < 3:
        raise InvalidDataError(f"need at least 3 rows to fit, got {m}")
    if not 1 <= components <= d:
        raise InvalidConfigError(f"components must be in [1, {d}], got {components}")
    if np.all(rows == rows[0]):
        raise DegenerateInputError("all rows are identical; no variance to project")
    mean = rows.mean(axis=0)
    centered = rows - mean
    covariance = centered.T @ centered / (m - 1)
    total_variance = float(np.trace(covariance))
    if total_variance <= 0.0:
        raise DegenerateInputError("rows carry no measurable variance to project")
    values, vectors = jacobi_eigh(covariance)
    top = np.argsort(values, kind="stable")[::-1][:components]
    axes = vectors[:, top].T.copy()
    for axis in axes:
        anchor = int(np.argmax(np.abs(axis)))
        if axis[anchor] < 0.0:
            axis *= -1.0
    return PCAModel(
        mean=mean,
        components=axes,
        explained_variance=values[top].copy(),
        total_variance=total_variance,
    )


def transform(model: PCAModel, data: np.ndarray) -> np.ndarray:
    """Project rows of the fitted width onto the fitted axes."""
    return (np.asarray(data, dtype=float) - model.mean) @ model.components.T
