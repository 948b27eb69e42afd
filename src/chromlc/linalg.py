"""Dense complex linear-algebra kernel for small operator matrices.

Everything works on plain ``numpy`` arrays of ``complex128``.  Hermitian
eigenproblems go to LAPACK (``np.linalg.eigh``, ``eigvalsh``);
:func:`hermitian_eig` checks its input first and also takes a stack
``(..., n, n)`` so that callers can diagonalize all 4x4 pair generators of
one sample time in a single call.  :func:`hermitian_norms` takes the
operator norms of such a stack, and :func:`is_unitary` checks a stack of
gates in one call.  :func:`unitary_log` goes to LAPACK's general
eigensolver, ``eig``, and a ``qr`` of the eigenvectors.

Sign convention, fixed package-wide: evolutions solve du/dt = -i H(t) u,
so ``expm_i(h, s)`` returns exp(-i*s*h), and ``unitary_log(u)`` returns the
Hermitian ``h`` with exp(+i*h) = u.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatch, NotHermitian, NotUnitary

PHASE_SNAP_TOL = 1e-12     # eigenphases this close to -pi are reported as +pi

__all__ = [
    "expm_i",
    "hermitian_eig",
    "hermitian_norms",
    "is_hermitian",
    "is_unitary",
    "spectral_distance",
    "unitary_log",
]


def _as_square(m, what: str, stacked: bool = False) -> np.ndarray:
    m = np.asarray(m, dtype=np.complex128)
    if (m.ndim < 2 if stacked else m.ndim != 2) or m.shape[-1] != m.shape[-2]:
        raise DimensionMismatch(f"{what} requires a square matrix, got shape {m.shape}")
    return m


def is_hermitian(m, tol: float = 1e-10) -> bool:
    """Max-entry deviation of (M - M^dagger) below ``tol``; a stack
    ``(..., n, n)`` passes when every member does."""
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        return False
    return float(np.max(np.abs(m - np.swapaxes(m, -1, -2).conj()), initial=0.0)) < tol


def is_unitary(m, tol: float = 1e-10) -> bool:
    """Max-entry deviation of (M^dagger M - 1) below ``tol``; a stack
    ``(..., n, n)`` passes when every member does."""
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        return False
    gram = np.swapaxes(m, -1, -2).conj() @ m
    return float(np.max(np.abs(gram - np.eye(m.shape[-1])), initial=0.0)) < tol


def hermitian_eig(m):
    """Eigendecomposition of a Hermitian matrix or a stack ``(..., n, n)``:
    LAPACK ``eigh``'s own result, unpacking as ``(w, v)``.

    Eigenvalues come back real and ascending along the last axis;
    eigenvectors are the columns of unitary matrices, so
    ``V diag(w) V^dagger`` reconstructs each input.  Raises ``NotHermitian``
    when any member fails :func:`is_hermitian` at 1e-10.
    """
    m = _as_square(m, "hermitian_eig", stacked=True)
    if not is_hermitian(m, 1e-10):
        raise NotHermitian("matrix is not Hermitian at tolerance 1e-10")
    return np.linalg.eigh(m)


def hermitian_norms(m) -> np.ndarray:
    """Operator norms of a Hermitian matrix or a stack ``(..., n, n)``, by one
    ``eigvalsh``: the largest |eigenvalue| of each, 0 for an empty matrix.

    The input is not checked; callers pass matrices Hermitian by
    construction or checked with :func:`is_hermitian`.
    """
    return np.max(np.abs(np.linalg.eigvalsh(m)), axis=-1, initial=0.0)


def expm_i(h, s: float) -> np.ndarray:
    """exp(-i*s*h) for Hermitian ``h``, via the eigendecomposition."""
    w, v = hermitian_eig(_as_square(h, "expm_i"))
    return (v * np.exp(-1j * s * w)) @ v.conj().T


def unitary_log(u) -> np.ndarray:
    """Principal Hermitian logarithm: exp(i * unitary_log(u)) = u.

    LAPACK ``eig`` gives the eigenvalues and an eigenvector basis; ``qr``
    makes that basis orthonormal.  As u is normal, eigenvectors of distinct
    eigenvalues are already orthogonal, so the QR step only mixes vectors
    within one (near-)degenerate cluster.  Eigenphases within
    ``PHASE_SNAP_TOL`` of -pi snap to +pi, closing the principal branch at
    the upper end.
    """
    u = _as_square(u, "unitary_log")
    if not is_unitary(u, 1e-10):
        raise NotUnitary("matrix is not unitary at tolerance 1e-10")
    lam, v = np.linalg.eig(u)
    q, _ = np.linalg.qr(v)
    phases = np.angle(lam)
    phases[phases <= -math.pi + PHASE_SNAP_TOL] = math.pi
    h = (q * phases) @ q.conj().T
    return (h + h.conj().T) / 2.0


def spectral_distance(a, b) -> float:
    """Operator norm of (a - b)."""
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if a.shape != b.shape:
        raise DimensionMismatch(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.linalg.norm(a - b, 2))
