import numpy as np
import pytest
from scipy.special import expit

from xylab import disorder
from xylab import ed_oracle as ed
from xylab import entanglement as ent
from xylab import experiments as xp
from xylab import hamiltonian as ham
from xylab import quasifree as qf
from xylab import transport as tr
from xylab.hamiltonian import alpha_from_index, bogoliubov, build_A, build_M, diagonalize_A


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def ensemble_mean(worker, ensemble, params, part=None):
    """Mean over the ensemble, by the library's one reduction, of an
    experiment worker xp._real_*; `part` picks one entry of a worker
    returning a tuple."""
    results = xp.map_realizations(worker, ensemble, params, workers=1)
    if part is not None:
        results = [r[part] for r in results]
    return disorder.aggregate(results)["mean"]


def ed_commutator_sups(chain, pairs, times) -> dict:
    """sup over the time grid of ||[X_j(t), X_k]|| per pair (j, k), on the
    2^n oracle of the chain, one parity sector at a time.  H is real and
    keeps the parity of the down-spin count, so one eigh per 2^(n-1) block
    gives its eigenbasis.  X_s flips one spin: in that basis it is the
    even-odd block A_s and its transpose.  P = X_j(t) X_k (both factors
    Hermitian) is then block-diagonal, with P_ee = (R o A_j) A_k^t and
    P_oo = (R o A_j)^* A_k for the phases R_ab = e^{it(e_a - e_b)}, and
    the norm is the largest eigenvalue modulus of the Hermitian
    i(P - P^*) over the two blocks."""
    n = chain.n
    eig = ed.spectral(ed.build_H(chain), ed.parity_sectors(n))
    even, position = eig.sectors.index[0], eig.sectors.position
    (e_even, e_odd), (V_even, V_odd) = eig.evals, eig.evecs
    sites = {s for pair in pairs for s in pair}
    A = {s: V_even.T @ V_odd[position[even ^ (1 << (n - s))]] for s in sites}
    sups = dict.fromkeys(pairs, 0.0)
    for t in times:
        rotation = np.outer(np.exp(1j * t * e_even), np.exp(-1j * t * e_odd))
        for j, k in pairs:
            Xj = rotation * A[j]
            for P in (Xj @ A[k].T, Xj.conj().T @ A[k]):
                norm = float(np.max(np.abs(np.linalg.eigvalsh(1j * (P - P.conj().T)))))
                sups[(j, k)] = max(sups[(j, k)], norm)
    return sups


def random_chain(rng, n, anisotropic=True, nu_scale=1.5):
    mu = rng.uniform(-1, 1, n - 1)
    gamma = rng.uniform(-0.8, 0.8, n - 1) if anisotropic else np.zeros(n - 1)
    nu = rng.uniform(-nu_scale, nu_scale, n)
    return disorder.make_chain(mu, gamma, nu)


CORNERS = ("random", "gamma_pm1", "zero_bond", "nu_zero", "clean")


def corner_chain(rng, n, corner):
    """A random anisotropic chain of n sites, or one at a degenerate corner:
    Ising bonds gamma = +-1, a zero bond that splits the chain, zero field
    (a lambda = 0 mode at odd n) or the clean chain mu = 1, gamma = nu = 0
    (A + B with repeated singular values)."""
    mu = rng.uniform(-1, 1, n - 1)
    gamma = rng.uniform(-0.8, 0.8, n - 1)
    nu = rng.uniform(-1.5, 1.5, n)
    if corner == "gamma_pm1":
        gamma = rng.choice([-1.0, 1.0], n - 1)
    elif corner == "zero_bond" and n > 1:
        mu[(n - 1) // 2] = 0.0
    elif corner == "nu_zero":
        nu = np.zeros(n)
    elif corner == "clean":
        mu, gamma, nu = np.ones(n - 1), np.zeros(n - 1), np.zeros(n)
    return disorder.make_chain(mu, gamma, nu)


@pytest.fixture
def chain_factory(rng):
    return lambda n, anisotropic=True: random_chain(rng, n, anisotropic)


# ---------------------------------------------------------------------------
# test-only oracle helpers and the np.kron reference of the Jordan-Wigner
# tables and of the bit-built H

PAULI = {
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
    "a": np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex),
    "I": np.eye(2, dtype=complex),
}


def kron_chain(n, factors):
    """np.kron chain of the Pauli matrices {site: kind}, identity elsewhere."""
    op = np.eye(1, dtype=complex)
    for site in range(1, n + 1):
        op = np.kron(op, PAULI[factors.get(site, "I")])
    return op


def kron_jordan_wigner_c(n, j):
    """c_j = sigma_z^(1) ... sigma_z^(j-1) a_j as a kron chain."""
    return kron_chain(n, {**{site: "Z" for site in range(1, j)}, j: "a"})


def kron_build_H(chain):
    """The XY Hamiltonian as a sum of kron chains of the Pauli matrices."""
    n = chain.n
    H = np.zeros((2**n, 2**n), dtype=complex)
    for j in range(1, n):
        mu, gam = chain.mu[j - 1], chain.gamma[j - 1]
        H -= mu * ((1.0 + gam) * kron_chain(n, {j: "X", j + 1: "X"})
                   + (1.0 - gam) * kron_chain(n, {j: "Y", j + 1: "Y"}))
    for j in range(1, n + 1):
        H -= chain.nu[j - 1] * kron_chain(n, {j: "Z"})
    return H


def dense_H(chain):
    """The oracle's H as a dense 2^n x 2^n matrix: its bit-flip diagonals
    scattered, H[s ^ m, s] = values[s]."""
    s = np.arange(2**chain.n)
    H = np.zeros((len(s), len(s)))
    for mask, values in ed.build_H(chain).items():
        H[s ^ mask, s] = values
    return H


def region_H(chain, a, b):
    """The Hamiltonian of the interval [a, b] (its interior bonds and
    fields) between identities on the rest of the chain."""
    sub = disorder.make_chain(chain.mu[a - 1:b - 1], chain.gamma[a - 1:b - 1], chain.nu[a - 1:b])
    return np.kron(np.kron(np.eye(2 ** (a - 1)), dense_H(sub)), np.eye(2 ** (chain.n - b)))


def dense_op(jw, p):
    """The interleaved operator o_p of the oracle's tables as a dense matrix."""
    dim = jw.tgt.shape[1]
    op = np.zeros((dim, dim))
    op[jw.tgt[p], np.arange(dim)] = jw.sgn[p]
    return op


def dense_cs(n):
    """[c_1, ..., c_n] as dense matrices made from the oracle's tables."""
    jw = ed.all_c(n)
    return [dense_op(jw, 2 * j) for j in range(n)]


def heisenberg_evolve(op, H, t):
    """tau_t(op) = e^{itH} op e^{-itH}; H may be a matrix or a
    precomputed (evals, evecs) pair of np.linalg.eigh."""
    evals, evecs = H if isinstance(H, tuple) else np.linalg.eigh(H)
    phases = np.exp(1j * t * evals)
    tilde = evecs.conj().T @ op @ evecs
    return evecs @ (np.outer(phases, phases.conj()) * tilde) @ evecs.conj().T


def commutator_norm(op1, op2):
    """Operator norm of [op1, op2]."""
    return float(np.linalg.norm(op1 @ op2 - op2 @ op1, 2))


def spin_basis_index(n, up_sites):
    """Index of the basis vector with up-spins exactly at `up_sites` (1-based)."""
    return sum(1 << (n - j) for j in range(1, n + 1) if j not in set(up_sites))


def spin_basis_vector(n, up_sites):
    e = np.zeros(2**n, dtype=complex)
    e[spin_basis_index(n, up_sites)] = 1.0
    return e


def region_number_op(n, sites):
    """sum_{x in sites} n_x as a dense diagonal matrix."""
    return np.diag(sum(ed.occupation_mask(n, x) for x in sites))


# ---------------------------------------------------------------------------
# references that no experiment reads: the high-disorder model, functions of
# a correlation matrix, multi-point determinants and the unreported bounds


def high_disorder_ensemble(n, eps, nu_dist, seed, realizations):
    """Isotropic chains with constant coupling eps >= 0 (close to 0: strong
    relative disorder; 0: decoupled) and random field."""
    if eps < 0:
        raise ValueError(f"eps must be >= 0, got {eps}")
    return disorder.EnsembleSpec(n=n, mu_dist=disorder.constant(eps),
                                 gamma_dist=disorder.constant(0.0), nu_dist=nu_dist,
                                 base_seed=seed, realizations=realizations)


def high_disorder_chain(n, eps, nu_dist, seed, i):
    """Realization i of high_disorder_ensemble."""
    return disorder.sample_chain(high_disorder_ensemble(n, eps, nu_dist, seed, i + 1), i)


def occupations(gamma):
    """<c_j^* c_j> for j = 1..n."""
    return np.real(np.diag(gamma)[1::2]).copy()


def one_particle_density(gamma):
    """rho[j, k] = <c_k^* c_j>, the kernel of the multi-point determinants."""
    return gamma[1::2, 1::2].T.copy()


def validate(gamma, atol=1e-9):
    """Check Hermiticity and the spectral bounds 0 <= gamma <= 1."""
    herm = np.max(np.abs(gamma - gamma.conj().T))
    if herm > atol:
        raise ValueError(f"gamma not Hermitian: residual {herm:.3e}")
    w = np.linalg.eigvalsh(gamma)
    if w[0] < -atol or w[-1] > 1 + atol:
        raise ValueError(f"gamma spectrum outside [0,1]: [{w[0]:.3e}, {w[-1]:.3e}]")


def purity_defect(gamma):
    """max |gamma^2 - gamma|; ~0 for pure quasi-free states."""
    return float(np.max(np.abs(gamma @ gamma - gamma)))


def dynamic_kernel(rho_1p, sd_A, t):
    """One-particle kernel rho * exp(2itA) whose (x, y) entry is the
    dynamic pair correlation <tau_t(c_y^*) c_x> in the particle
    sector (tau_t(X) = e^{itH} X e^{-itH})."""
    return rho_1p @ function_of(sd_A, lambda lam: np.exp(2j * t * lam))


def multipoint_correlation(kernel, x, y):
    """Determinant of the kernel sampled on ordered configurations:
    the m-point function <tau_t(c^*_{y_m}) .. tau_t(c^*_{y_1}) c_{x_1} .. c_{x_m}>,
    for the one-particle density (or dynamic_kernel) as the kernel."""
    x = qf.ordered_configuration(x, kernel.shape[0])
    y = qf.ordered_configuration(y, kernel.shape[1])
    if len(x) != len(y) or len(x) == 0:
        raise ValueError("configurations must have equal cardinality m >= 1")
    return complex(np.linalg.det(kernel[np.ix_(np.array(x) - 1, np.array(y) - 1)]))


def occupation_bound(eta, dmin):
    """2 / (e^{2 eta dmin} - 1): decay-certified bound on the occupation
    at distance dmin from the nearest occupied-mode center."""
    return 2.0 / np.expm1(2.0 * eta * dmin)


def trace_norm_inequality_gap(chain, s1, s2, eta, t):
    """(lhs, rhs) of the per-realization trace bound: the energy trace
    restricted to S2 against 2 ||A|| sum_{j in S2, k in S1} |exp(2itA)_{jk}|."""
    idx1 = tr._region_rows(s1, chain.n, interval=True)
    idx2 = np.array(s2) - 1
    eta = np.asarray(eta, dtype=float)
    A = build_A(chain)
    AS1 = np.zeros_like(A)
    AS1[np.ix_(idx1, idx1)] = A[np.ix_(idx1, idx1)]
    U = function_of(diagonalize_A(chain), lambda lam: np.exp(2j * t * lam))
    evolved = U @ AS1 @ U.conj().T
    lhs = abs(float(np.real(np.sum(np.diag(evolved)[idx2] * eta[idx2]))))
    rhs = 2.0 * np.linalg.norm(A, 2) * float(np.sum(np.abs(U[np.ix_(idx2, idx1)])))
    return lhs, rhs


def thermal_entanglement_of_formation_bound(bog, ell, beta, sample_count=200, seed=0):
    """Gibbs-weighted average of eigenstate entanglements, a bound on the
    Gibbs state's entanglement of formation: all labels for n <= 14, else
    sample_count labels of independent Bernoulli occupations."""
    n = bog.n
    ent._check_cut(ell, n)
    if n <= ent.MAX_EXHAUSTIVE_SITES:
        if np.isinf(beta):
            return float(ent._label_entropies(bog, ell, np.zeros((1, n), dtype=int))[0])
        # energies 2*sum(lam[occupied]) - E0; the E0 shift cancels in the weights
        alphas = alpha_from_index(np.arange(2**n)[:, None], n)
        w = np.exp(-2.0 * beta * (alphas @ bog.lam))
        return float(w @ ent._label_entropies(bog, ell, alphas) / np.sum(w))
    rng = np.random.default_rng(seed)
    p_occ = expit(-2.0 * beta * bog.lam)
    alphas = np.array([rng.random(n) < p_occ for _ in range(sample_count)], dtype=int)
    return float(np.mean(ent._label_entropies(bog, ell, alphas)))


def quench_initial_gamma(chain, ell, alpha_left, alpha_right):
    """The dense 2n x 2n correlation matrix of (left eigenstate) x (right
    eigenstate) for the chain split after site ell: the initial state of
    entanglement.quench_entropy.  The halves are the open-boundary
    restrictions of the chain; the bond mu_ell, gamma_ell is dropped."""
    n = chain.n
    left = disorder.make_chain(chain.mu[: ell - 1], chain.gamma[: ell - 1], chain.nu[:ell])
    right = disorder.make_chain(chain.mu[ell:], chain.gamma[ell:], chain.nu[ell:])
    gamma = np.zeros((2 * n, 2 * n))
    gamma[: 2 * ell, : 2 * ell] = qf.eigenstate_gamma(bogoliubov(left), alpha_left)
    gamma[2 * ell :, 2 * ell :] = qf.eigenstate_gamma(bogoliubov(right), alpha_right)
    return gamma


# ---------------------------------------------------------------------------
# the 2n x 2n forms: the dense eigensolver, W and M's eigensystem read off
# it, and the kernels on them, the references of the n-mode forms in src


def diagonalize(X):
    """Eigendecomposition of a real symmetric matrix; residuals are
    verified."""
    X = np.asarray(X, dtype=float)
    sym_err = np.max(np.abs(X - X.T)) if X.size else 0.0
    if sym_err > 1e-12:
        raise ValueError(f"matrix not symmetric: max asymmetry {sym_err:.3e}")
    lam, V = np.linalg.eigh(X)
    scale = max(np.max(np.abs(lam)), 1.0) if lam.size else 1.0
    resid = np.max(np.abs(X @ V - V * lam)) if lam.size else 0.0
    orth = np.max(np.abs(V.T @ V - np.eye(len(lam)))) if lam.size else 0.0
    if resid > 1e-10 * scale or orth > 1e-10:
        raise ham.EigensolverError(
            f"eigensolver residuals too large: |XV-VL|={resid:.3e}, |V^tV-I|={orth:.3e}")
    return ham.SpectralDecomposition(eigenvalues=lam, eigenvectors=V)


def function_of(sd, g):
    """g(X) of X = V diag(lam) V^t via the spectral theorem; g applied
    elementwise to the eigenvalues (may return complex values)."""
    V = sd.eigenvectors
    return (V * g(sd.eigenvalues)) @ V.T


def bogoliubov_W(bog):
    """Orthogonal, W J W^t = J, W M W^t = diag(+l_j, -l_j) blocks: rows (2j, 2j+1)
    interleave ((g+h)/2, (g-h)/2) and ((g-h)/2, (g+h)/2), g, h column j of Psi, Phi."""
    n = bog.n
    W = np.zeros((2 * n, 2 * n))
    phi = 0.5 * (bog.Psi + bog.Phi)  # c-components of the +lambda eigenvectors
    psi = 0.5 * (bog.Psi - bog.Phi)  # c^*-components
    W[0::2, 0::2] = phi.T
    W[0::2, 1::2] = psi.T
    W[1::2, 0::2] = psi.T
    W[1::2, 1::2] = phi.T
    return W


def spectral_M(bog):
    """The eigensystem of M read off W: row 2j of W is the eigenvector of
    +lambda_j and row 2j+1 that of -lambda_j (Lieb-Schultz-Mattis),
    ordered so the eigenvalues ascend."""
    W = bogoliubov_W(bog)
    return ham.SpectralDecomposition(
        eigenvalues=np.concatenate([-bog.lam[::-1], bog.lam]),
        eigenvectors=np.concatenate([W[1::2][::-1], W[0::2]]).T,
    )


def eigenstate_gamma_2n(bog, alpha):
    """W^t P W, the spectral projection selecting +lambda_j for empty modes
    and -lambda_j for occupied ones."""
    W = bogoliubov_W(bog)
    return (W.T * qf.mode_selector(alpha)) @ W


def thermal_gamma_2n(sd_M, beta):
    """(1 + exp(-2 beta M))^{-1} from the eigensystem sd_M of M."""
    return function_of(sd_M, lambda lam: 0.5 * (1.0 + np.tanh(beta * lam)))


def evolve_gamma_2n(gamma, sd_M, t):
    """exp(-2itM) gamma exp(+2itM) by the dense propagator of the
    eigensystem sd_M of M."""
    U = function_of(sd_M, lambda lam: np.exp(-2j * t * lam))
    return U @ gamma @ U.conj().T


def complex_block_norms(re, im=None):
    """Spectral norms of the 2x2 matrices re + i im stacked on the last two
    axes: ham.block_norms' closed form with the imaginary parts added to
    the row norms and the row overlap."""
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


def block_spectral_norms(gamma):
    """n x n table of spectral norms of the 2x2 blocks of a 2n x 2n gamma."""
    n = len(gamma) // 2
    blocks = gamma.reshape(n, 2, n, 2).transpose(0, 2, 1, 3)
    return complex_block_norms(blocks.real, blocks.imag if np.iscomplexobj(blocks) else None)


def entropy_from_gamma(gamma, ell):
    """Von Neumann entropy of the reduction to [1, ell]: -sum zeta ln zeta
    over the upper-left 2*ell block spectrum."""
    ent._check_cut(ell, len(gamma) // 2)
    return float(ent._spectrum_entropy(np.linalg.eigvalsh(gamma[: 2 * ell, : 2 * ell])))


def ps_bound_gamma(gamma, ell):
    """Cross-cut bound 2 ln 2 * sum_{j<=ell} sum_{k>ell} ||gamma(j,k)|| of
    any correlation matrix."""
    ent._check_cut(ell, len(gamma) // 2)
    return float(2.0 * ent.LN2 * np.sum(block_spectral_norms(gamma)[:ell, ell:]))


def energy_fluctuation_series_2n(chain, s1, eta, times):
    """transport.energy_fluctuation_series as the profile trace of M_{S1}
    over M's eigensystem read off W."""
    idx = tr._region_rows(s1, chain.n, interval=True)
    M = build_M(chain)
    rows = np.sort(np.concatenate([2 * idx, 2 * idx + 1]))
    out = -tr._profile_trace(spectral_M(bogoliubov(chain)), rows, M[np.ix_(rows, rows)],
                             np.diag(qf.profile_gamma(eta)), times)
    return out - out[0]


def block_table_2n(sd):
    """Block eigencorrelator table of the 2n x 2n eigensystem sd of M: the
    sum over eigenvectors of the products of their per-site norms."""
    V = sd.eigenvectors
    if sd.dim % 2:
        raise ValueError("block table requires even dimension")
    U = np.sqrt(V[0::2, :] ** 2 + V[1::2, :] ** 2)  # n x 2n per-site norms
    return U @ U.T


def block_amplitude_sup_2n(sd, times):
    """Entrywise max over the grid of the 2x2-block spectral norms of
    exp(-2itM), from the 2n x 2n eigensystem sd of M, over the pairs j <= k."""
    V = sd.eigenvectors
    lam = sd.eigenvalues
    if sd.dim % 2:
        raise ValueError("block amplitudes require even dimension")
    n = sd.dim // 2
    j, k = np.triu_indices(n)
    best = np.zeros(len(j))
    # entry (a, b) of every block (j, k), for (a, b) = (0,0), (0,1), (1,0), (1,1)
    W = np.vstack([V[2 * j + a] * V[2 * k + b] for a in (0, 1) for b in (0, 1)])
    for m, R in qf.phase_rows(lam, times, 2.0, 2 * len(W)):
        ri = R @ W.T
        parts = ri.reshape(2, m, 2, 2, len(j)).transpose(0, 1, 4, 2, 3)
        np.maximum(best, np.max(complex_block_norms(parts[0], parts[1]), axis=0), out=best)
    out = np.zeros((n, n))
    out[j, k] = best
    out[k, j] = best
    return out
