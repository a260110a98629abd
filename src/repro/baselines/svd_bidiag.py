"""SVD-Bidiag: the Demmel-Kahan three-step dense SVD (paper Section 2.2).

The three steps, exactly as the paper lists them for an ``N x D`` input Y:

1. QR decomposition ``Y = Q * R`` (Householder);
2. Golub-Kahan bidiagonalization of R: ``R = U1 * B * V1'`` with B upper
   bidiagonal (implemented from scratch with Householder reflections);
3. SVD of the bidiagonal B.

The intermediate matrices of each step -- Q (N x D), R/B (D x D), U1/V1
(D x D) -- give the O(max((N+D)d, D^2)) communication complexity of
Table 1; :func:`svd_bidiag` reports their element counts alongside the
decomposition so the cost-model benchmark can check the formula empirically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.errors import ShapeError


@dataclass(frozen=True)
class BidiagStats:
    """Intermediate-data element counts for the three steps."""

    qr_elements: int
    bidiag_elements: int
    svd_elements: int

    @property
    def max_elements(self) -> int:
        return max(self.qr_elements, self.bidiag_elements, self.svd_elements)


def bidiagonalize(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Golub-Kahan Householder bidiagonalization: ``A = U * B * V'``.

    Args:
        matrix: a dense ``m x n`` array with ``m >= n``.

    Returns:
        (U, B, V) with U ``m x n`` and V ``n x n`` having orthonormal
        columns and B ``n x n`` upper bidiagonal.
    """
    work = np.array(matrix, dtype=np.float64, copy=True)
    m, n = work.shape
    if m < n:
        raise ShapeError(f"bidiagonalization needs m >= n, got {work.shape}")
    left = np.eye(m)
    right = np.eye(n)
    for k in range(n):
        # Left Householder: zero below the diagonal in column k.
        reflector = _householder(work[k:, k])
        if reflector is not None:
            work[k:, k:] -= np.outer(reflector, 2.0 * (reflector @ work[k:, k:]))
            left[:, k:] -= np.outer(left[:, k:] @ reflector, 2.0 * reflector)
        if k < n - 2:
            # Right Householder: zero to the right of the superdiagonal.
            reflector = _householder(work[k, k + 1 :])
            if reflector is not None:
                work[k:, k + 1 :] -= np.outer(
                    2.0 * (work[k:, k + 1 :] @ reflector), reflector
                )
                right[:, k + 1 :] -= np.outer(right[:, k + 1 :] @ reflector, 2.0 * reflector)
    return left[:, :n], np.triu(np.tril(work[:n, :n], 1)), right


def _householder(vector: np.ndarray) -> np.ndarray | None:
    """Unit Householder reflector annihilating all but the first entry."""
    norm = np.linalg.norm(vector)
    if norm < 1e-300:
        return None
    target = vector.copy()
    target[0] += np.copysign(norm, vector[0] if vector[0] != 0 else 1.0)
    target_norm = np.linalg.norm(target)
    if target_norm < 1e-300:
        return None
    return target / target_norm


def _bidiagonal_svd(bidiagonal: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """SVD of an upper bidiagonal matrix via its tridiagonal Gram matrix.

    ``B'B`` is symmetric tridiagonal; its eigendecomposition (by the
    specialized LAPACK tridiagonal solver) gives V and the squared singular
    values, and ``U = B V S^-1`` recovers the left factors.  Zero singular
    values get arbitrary orthonormal completions.
    """
    from scipy.linalg import eigh_tridiagonal

    n = bidiagonal.shape[0]
    diagonal = np.diag(bidiagonal)
    superdiag = np.diag(bidiagonal, 1)
    tri_diag = diagonal**2 + np.concatenate(([0.0], superdiag**2))
    tri_off = diagonal[:-1] * superdiag
    eigenvalues, eigenvectors = eigh_tridiagonal(tri_diag, tri_off)
    order = np.argsort(eigenvalues)[::-1]
    eigenvalues = np.clip(eigenvalues[order], 0.0, None)
    right = eigenvectors[:, order]
    singular_values = np.sqrt(eigenvalues)
    # Squaring B leaves eigenvalue noise of order eps * sigma_max^2, so a
    # zero singular value can come back as large as ~sqrt(eps) * sigma_max;
    # ``B v / sigma`` is noise below that, and those columns are completed.
    tolerance = max(1e-12, n * np.sqrt(np.finfo(np.float64).eps) * singular_values[0])
    rank = int(np.sum(singular_values > tolerance))
    left = np.zeros((n, n))
    for i in range(rank):
        left[:, i] = (bidiagonal @ right[:, i]) / singular_values[i]
    # Orthonormal completion for the null space columns.
    if rank < n:
        left[:, rank:] = _null_completion(left[:, :rank], n - rank)
    return left, singular_values, right.T


def _null_completion(basis: np.ndarray, count: int) -> np.ndarray:
    """*count* orthonormal columns orthogonal to the orthonormal *basis*.

    They are the leading left singular vectors of the projector
    ``I - basis basis'`` onto the complement, whose singular values are
    exactly ``count`` ones and ``rank`` zeros.
    """
    projector = np.eye(basis.shape[0]) - basis @ basis.T
    return np.linalg.svd(projector)[0][:, :count]


def svd_bidiag(
    data, n_components: int | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, BidiagStats]:
    """Full SVD-Bidiag pipeline: QR, bidiagonalize, bidiagonal SVD.

    Args:
        data: ``N x D`` input with ``N >= D`` (dense; sparse is densified,
            since this is the dense-matrix method of Section 2.2).
        n_components: truncate the returned factors to this many triplets.

    Returns:
        (U, s, Vt, stats): the (truncated) SVD of *data* and the
        intermediate-data element counts of the three steps.
    """
    dense = np.asarray(data.todense()) if sp.issparse(data) else np.asarray(data, dtype=np.float64)
    n_rows, n_cols = dense.shape
    if n_rows < n_cols:
        raise ShapeError(
            f"SVD-Bidiag expects a tall matrix (N >= D), got {dense.shape}"
        )
    k = n_components or n_cols

    # Step 1: QR.
    q_factor, r_factor = np.linalg.qr(dense)
    # Step 2: Golub-Kahan bidiagonalization of R.
    u1, bidiagonal, v1 = bidiagonalize(r_factor)
    # Step 3: SVD of the bidiagonal matrix.
    u2, singular_values, v2t = _bidiagonal_svd(bidiagonal)

    left = q_factor @ u1 @ u2
    right_t = v2t @ v1.T
    order = np.argsort(singular_values)[::-1]
    left = left[:, order][:, :k]
    singular_values = singular_values[order][:k]
    right_t = right_t[order][:k]

    stats = BidiagStats(
        qr_elements=n_rows * n_cols + n_cols * n_cols,
        bidiag_elements=3 * n_cols * n_cols,
        svd_elements=3 * n_cols * n_cols,
    )
    return left, singular_values, right_t, stats
