"""Effective one-particle Hamiltonians of the XY chain and their
diagonalization.

The chain maps onto quasi-free fermions with tridiagonal matrices A
(hopping/field) and B (pairing).  The isotropic chain is governed by A
alone; the anisotropic chain by the 2x2-block Jacobi matrix M acting on
the interleaved vector (c_1, c_1^*, ..., c_n, c_n^*), whose one
decomposition is the SVD A + B = Phi diag(lambda) Psi^t (Lieb, Schultz
and Mattis): M has the mode pairs +/-lambda_j, and every anisotropic
state and propagator is built from Psi, Phi and lambda.  Many-body
energies are sum(2 lambda_j over occupied modes) - E0 with
E0 = sum(lambda_j).
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
from dataclasses import dataclass

import numpy as np

from .disorder import ChainSpec


def _load_flapack():
    """scipy's f2py LAPACK extension scipy/linalg/_flapack, loaded from its
    file: importing the scipy.linalg package would also import its
    array-API layer, which pulls in numpy.f2py, numpy.testing and numpy.ma
    (about 0.15 s and 20 MiB per process).  The children that
    experiments.map_realizations forks inherit the loaded module."""
    spec = importlib.util.find_spec("scipy")
    if spec is None:
        raise ImportError("scipy is not installed: xylab needs its LAPACK extension _flapack")
    searched = [os.path.join(d, "linalg") for d in spec.submodule_search_locations]
    for d in searched:
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(d, "_flapack" + suffix)
            if os.path.isfile(path):
                ext = importlib.util.spec_from_file_location("scipy.linalg._flapack", path)
                module = importlib.util.module_from_spec(ext)
                ext.loader.exec_module(module)
                return module
    raise ImportError(f"scipy's LAPACK extension _flapack not found in {', '.join(searched)}")


_flapack = _load_flapack()

SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]])


def build_A(chain: ChainSpec) -> np.ndarray:
    """Tridiagonal matrix with diagonal -nu and off-diagonal mu."""
    A = np.diag(-chain.nu_array())
    mu = chain.mu_array()
    if chain.n > 1:
        idx = np.arange(chain.n - 1)
        A[idx, idx + 1] = mu
        A[idx + 1, idx] = mu
    return A


def build_B(chain: ChainSpec) -> np.ndarray:
    """Antisymmetric pairing matrix: super-diagonal mu_j*gamma_j."""
    B = np.zeros((chain.n, chain.n))
    if chain.n > 1:
        idx = np.arange(chain.n - 1)
        mg = chain.mu_array() * chain.gamma_array()
        B[idx, idx + 1] = mg
        B[idx + 1, idx] = -mg
    return B


def build_M(chain: ChainSpec) -> np.ndarray:
    """2n x 2n block-Jacobi effective Hamiltonian in the interleaved
    (c_j, c_j^*) ordering: diagonal blocks -nu_j sigma_z, bond blocks
    mu_j S(gamma_j) with S(g) = [[1, g], [-g, -1]] above and its transpose
    below.  Every entry is the product mu_j S or -nu_j sigma_z gives it,
    signed zeros included, scattered through the (site, 2, site, 2) view."""
    n = chain.n
    M = np.zeros((2 * n, 2 * n))
    blocks = M.reshape(n, 2, n, 2)  # blocks[j, :, k, :] is the (j, k) block of M
    site, bond = np.arange(n), np.arange(n - 1)
    blocks[site, :, site, :] = -chain.nu_array()[:, None, None] * SIGMA_Z
    g = chain.gamma_array()
    S = np.empty((n - 1, 2, 2))
    S[:, 0, 0], S[:, 0, 1], S[:, 1, 0], S[:, 1, 1] = 1.0, g, -g, -1.0
    S *= chain.mu_array()[:, None, None]
    blocks[bond, :, bond + 1, :] = S
    blocks[bond + 1, :, bond, :] = S.transpose(0, 2, 1)
    return M


def block_norms(re: np.ndarray) -> np.ndarray:
    """Spectral norms of the real 2x2 matrices stacked on the last two axes:
    the square root of the top eigenvalue of X X^t, whose gap is formed
    from the row-norm difference and the row overlap as a sum of squares,
    so it stays accurate when the singular values nearly agree."""
    a, b, c, d = re[..., 0, 0], re[..., 0, 1], re[..., 1, 0], re[..., 1, 1]
    r1 = a * a + b * b
    r2 = c * c + d * d
    ov = a * c + b * d
    gap = np.sqrt((r1 - r2) ** 2 + 4.0 * (ov * ov))
    return np.sqrt(0.5 * (r1 + r2 + gap))


@dataclass
class SpectralDecomposition:
    """Eigensystem of a real symmetric matrix, ascending eigenvalues,
    orthonormal eigenvector columns.  Column signs are whatever the solver
    returns; every quantity built from them is sign-invariant."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.eigenvalues)


class EigensolverError(RuntimeError):
    pass


def diagonalize_A(chain: ChainSpec) -> SpectralDecomposition:
    """Eigensystem of the tridiagonal one-particle matrix of a chain:
    LAPACK's divide-and-conquer dstevd, the
    routine and wrapper scipy.linalg.eigh_tridiagonal runs for a full
    spectrum, so the results are bitwise those of that function.  The
    chain's entries are finite (ChainSpec checks them)."""
    if chain.n == 1:
        return SpectralDecomposition(
            eigenvalues=np.array([-chain.nu[0]]), eigenvectors=np.eye(1)
        )
    lam, V, info = _flapack.dstevd(-chain.nu_array(), chain.mu_array())
    if info > 0:
        raise EigensolverError(
            f"tridiagonal eigensolver failed: dstevd did not converge (LAPACK info={info})")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dstevd")
    return SpectralDecomposition(eigenvalues=lam, eigenvectors=V)


@dataclass
class BogoliubovDecomposition:
    """The SVD A + B = Phi diag(lam) Psi^t, Psi and Phi sites x modes, lam
    ascending >= 0, E0 = sum(lam).  `degenerate` flags mode energies that
    collide (or vanish) within 1e-12; eigenstate-resolved quantities
    downstream inherit the flag."""

    Psi: np.ndarray
    Phi: np.ndarray
    lam: np.ndarray
    E0: float
    degenerate: bool

    @property
    def n(self) -> int:
        return len(self.lam)


def bogoliubov(chain: ChainSpec) -> BogoliubovDecomposition:
    """Bogoliubov decomposition from the SVD A + B = Phi diag(l) Psi^t,
    modes in ascending l.  The mode pairs diagonalize M exactly when
    Phi and Psi are orthogonal and (A + B) Psi = Phi diag(l), which are
    verified at size n before returning; A + B is tridiagonal, so its
    product is taken from its three diagonals."""
    n = chain.n
    T = build_A(chain) + build_B(chain)
    Phi, lam, PsiT = np.linalg.svd(T)
    order = np.argsort(lam, kind="stable")
    lam = lam[order]
    Phi = Phi[:, order]
    Psi = PsiT.T[:, order]

    eye = np.eye(n)
    phi_orth = np.max(np.abs(Phi.T @ Phi - eye))
    psi_orth = np.max(np.abs(Psi.T @ Psi - eye))
    R = np.diagonal(T)[:, None] * Psi - Phi * lam
    R[:-1] += np.diagonal(T, 1)[:, None] * Psi[1:]
    R[1:] += np.diagonal(T, -1)[:, None] * Psi[:-1]
    resid = np.max(np.abs(R))
    if phi_orth > 1e-10 or psi_orth > 1e-10 or resid > 1e-9 * max(1.0, np.max(lam, initial=1.0)):
        raise EigensolverError(
            f"bogoliubov constraints violated: |Phi^tPhi-I|={phi_orth:.3e}, "
            f"|Psi^tPsi-I|={psi_orth:.3e}, |(A+B)Psi-Phi L|={resid:.3e}"
        )
    degenerate = bool(lam[0] < 1e-12 or np.any(np.diff(lam) < 1e-12))
    return BogoliubovDecomposition(Psi, Phi, lam, float(np.sum(lam)), degenerate)


def all_many_body_energies(bog: BogoliubovDecomposition) -> np.ndarray:
    """All 2^n eigenvalues of H, in alpha-bit order (alpha_1 the fastest bit
    would be ambiguous; here index a runs 0..2^n-1 with alpha_j = bit j of a)."""
    n = bog.n
    if n > 24:
        raise ValueError("2^n enumeration capped at n=24")
    energies = np.zeros(2**n)
    for j in range(n):
        bit = (np.arange(2**n) >> j) & 1
        energies += 2.0 * bog.lam[j] * bit
    return energies - bog.E0


def alpha_from_index(a, n: int) -> np.ndarray:
    """Occupation bits of enumeration index a (alpha_j = bit j of a); a
    column of indices gives one row of bits per index."""
    return (a >> np.arange(n)) & 1


def _check_label(alpha, n: int, name: str = "alpha") -> np.ndarray:
    """alpha as an array, checked to be a 0/1 vector of length n: a column would broadcast."""
    alpha = np.asarray(alpha)
    if alpha.shape != (n,) or not np.all((alpha == 0) | (alpha == 1)):
        raise ValueError(f"{name} must be a 0/1 vector of length {n}")
    return alpha
