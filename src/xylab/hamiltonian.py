"""Effective one-particle Hamiltonians of the XY chain and their
diagonalization.

The chain maps onto quasi-free fermions with tridiagonal matrices A
(hopping/field) and B (pairing).  The isotropic chain is governed by A
alone; the anisotropic chain by the 2x2-block Jacobi matrix M acting on
the interleaved vector (c_1, c_1^*, ..., c_n, c_n^*).  A Bogoliubov
transformation W (orthogonal, W J W^t = J with J = sigma_x per block)
brings M to +/-lambda_j block-diagonal form, with lambda_j the singular
values of A + B.  Many-body energies are sum(2 lambda_j over occupied
modes) - E0 with E0 = sum(lambda_j).
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


def s_gamma(gamma: float) -> np.ndarray:
    """Bond block of M: S(gamma) = [[1, gamma], [-gamma, -1]]."""
    return np.array([[1.0, gamma], [-gamma, -1.0]])


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
    mu_j S(gamma_j) above and its transpose below."""
    n = chain.n
    M = np.zeros((2 * n, 2 * n))
    for j in range(n):
        M[2 * j : 2 * j + 2, 2 * j : 2 * j + 2] = -chain.nu[j] * SIGMA_Z
    for j in range(n - 1):
        blk = chain.mu[j] * s_gamma(chain.gamma[j])
        M[2 * j : 2 * j + 2, 2 * j + 2 : 2 * j + 4] = blk
        M[2 * j + 2 : 2 * j + 4, 2 * j : 2 * j + 2] = blk.T
    return M


def block_norms(re: np.ndarray, im: np.ndarray | None = None) -> np.ndarray:
    """Spectral norms of the 2x2 matrices re + i im stacked on the last two
    axes: the square root of the top eigenvalue of X X^*, whose gap is
    formed from the row-norm difference and the row overlap as a sum of
    squares, so it stays accurate when the singular values nearly agree."""
    a, b, c, d = re[..., 0, 0], re[..., 0, 1], re[..., 1, 0], re[..., 1, 1]
    r1 = a * a + b * b
    r2 = c * c + d * d
    ov_re = a * c + b * d
    ov_im = 0.0
    if im is not None:
        ai, bi, ci, di = im[..., 0, 0], im[..., 0, 1], im[..., 1, 0], im[..., 1, 1]
        r1 += ai * ai + bi * bi
        r2 += ci * ci + di * di
        ov_re += ai * ci + bi * di
        ov_im = ai * c - a * ci + bi * d - b * di
    gap = np.sqrt((r1 - r2) ** 2 + 4.0 * (ov_re * ov_re + ov_im * ov_im))
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

    def function_of(self, g) -> np.ndarray:
        """g(X) via the spectral theorem; g applied elementwise to the
        eigenvalues (may return complex values, e.g. g = exp(-it.))."""
        V = self.eigenvectors
        return (V * g(self.eigenvalues)) @ V.T


class EigensolverError(RuntimeError):
    pass


def diagonalize_A(chain: ChainSpec) -> SpectralDecomposition:
    """Eigensystem of the tridiagonal one-particle matrix of a chain, same
    conventions as diagonalize: LAPACK's divide-and-conquer dstevd, the
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


def diagonalize(X: np.ndarray) -> SpectralDecomposition:
    """Eigendecomposition of a real symmetric matrix; residuals are
    verified."""
    X = np.asarray(X, dtype=float)
    sym_err = np.max(np.abs(X - X.T)) if X.size else 0.0
    if sym_err > 1e-12:
        raise ValueError(f"matrix not symmetric: max asymmetry {sym_err:.3e}")
    try:
        lam, V = np.linalg.eigh(X)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(
            f"eigh failed for {X.shape[0]}x{X.shape[0]} matrix "
            f"(norm {np.linalg.norm(X):.3e}): {exc}"
        ) from exc
    scale = max(np.max(np.abs(lam)), 1.0) if lam.size else 1.0
    resid = np.max(np.abs(X @ V - V * lam)) if lam.size else 0.0
    orth = np.max(np.abs(V.T @ V - np.eye(len(lam)))) if lam.size else 0.0
    if resid > 1e-10 * scale or orth > 1e-10:
        raise EigensolverError(
            f"eigensolver residuals too large: |XV-VL|={resid:.3e}, "
            f"|V^tV-I|={orth:.3e}"
        )
    return SpectralDecomposition(eigenvalues=lam, eigenvectors=V)


@dataclass
class BogoliubovDecomposition:
    """Orthogonal W with W J W^t = J and W M W^t = diag(+l_j, -l_j) blocks;
    lambda ascending >= 0, E0 = sum(lambda).  `degenerate` flags mode
    energies that collide (or vanish) within 1e-12; eigenstate-resolved
    quantities downstream inherit the flag."""

    W: np.ndarray
    lam: np.ndarray
    E0: float
    degenerate: bool

    @property
    def n(self) -> int:
        return len(self.lam)

    @property
    def spectral(self) -> SpectralDecomposition:
        """The eigensystem of M read off W: row 2j of W is the eigenvector
        of +lambda_j and row 2j+1 that of -lambda_j (Lieb-Schultz-Mattis),
        ordered so the eigenvalues ascend."""
        return SpectralDecomposition(
            eigenvalues=np.concatenate([-self.lam[::-1], self.lam]),
            eigenvectors=np.concatenate([self.W[1::2][::-1], self.W[0::2]]).T,
        )


def bogoliubov(chain: ChainSpec) -> BogoliubovDecomposition:
    """Bogoliubov decomposition from the SVD A + B = Phi diag(l) Psi^t.

    With g_j, h_j the right/left singular vector pairs, the rows
    (2j, 2j+1) of W are the interleavings of ((g+h)/2, (g-h)/2) and
    ((g-h)/2, (g+h)/2); W J W^t = J holds by this construction.  W is
    orthogonal with W M W^t = D exactly when Phi and Psi are orthogonal
    and (A + B) Psi = Phi diag(l), which are verified at size n before
    returning; A + B is tridiagonal, so its product is taken from its
    three diagonals.
    """
    n = chain.n
    T = build_A(chain) + build_B(chain)
    Phi, lam, PsiT = np.linalg.svd(T)
    order = np.argsort(lam, kind="stable")
    lam = lam[order]
    Phi = Phi[:, order]
    Psi = PsiT.T[:, order]

    W = np.zeros((2 * n, 2 * n))
    phi = 0.5 * (Psi + Phi)  # c-components of the +lambda eigenvectors
    psi = 0.5 * (Psi - Phi)  # c^*-components
    W[0::2, 0::2] = phi.T
    W[0::2, 1::2] = psi.T
    W[1::2, 0::2] = psi.T
    W[1::2, 1::2] = phi.T

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
    return BogoliubovDecomposition(W=W, lam=lam, E0=float(np.sum(lam)), degenerate=degenerate)


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
