"""Certification of the free-fermion layer against the 2^n oracle.

Each check takes a chain's free-fermion data and the oracle's (its H or
its eigensystem, and the Jordan-Wigner tables) and returns the worst
deviation it saw.  `chain_errors` runs every per-chain check on one chain,
and `oracle_suite` runs them on random chains and judges the worst errors
against TOLERANCES.  The oracle side works one symmetry sector at a time:
H's eigensystem per parity sector, the isotropic H's per particle-number
sector, and the Gibbs state as its parity blocks.
"""

from __future__ import annotations

import numpy as np

from . import ed_oracle as ed
from . import entanglement as ent
from .disorder import ChainSpec, EnsembleSpec, sample_chain, uniform
from .fock import occupation_number
from .hamiltonian import (
    BogoliubovDecomposition,
    all_many_body_energies,
    alpha_from_index,
    bogoliubov,
    build_A,
    build_M,
    diagonalize_A,
)
from .quasifree import eigenstate_gamma, evolve_gamma, profile_gamma, thermal_gamma

TOLERANCES = {
    "spectrum": 1e-8, "quadratic_identity": 1e-10, "isotropic_identity": 1e-10,
    "car": 1e-12, "eigenstate_gamma": 1e-8, "thermal_gamma": 1e-8,
    "entropy": 1e-7, "occupation": 1e-8, "evolved_gamma": 1e-8,
}


def oracle_suite(n: int, seed: int, realizations: int) -> dict:
    """Brute-force identity checks on small random chains; returns one
    boolean per check plus the worst deviations seen.  The Jordan-Wigner
    tables and the sector index arrays are built once."""
    ens = EnsembleSpec(n=n, mu_dist=uniform(-1.0, 1.0), gamma_dist=uniform(-0.7, 0.7),
                       nu_dist=uniform(-1.5, 1.5), base_seed=seed, realizations=realizations)
    jw = ed.all_c(n)
    parity, number = ed.parity_sectors(n), ed.number_sectors(n)
    errors = [chain_errors(sample_chain(ens, i), jw, parity, number) for i in range(realizations)]
    worst = {"car": check_car(jw), **{k: max(e[k] for e in errors) for k in errors[0]}}
    checks = {k: bool(worst[k] <= TOLERANCES[k]) for k in worst}
    return {
        "n": n, "seed": seed, "realizations": realizations,
        "max_errors": worst, "tolerances": dict(TOLERANCES), "checks": checks,
        "all_pass": bool(all(checks.values())),
    }


def chain_errors(chain: ChainSpec, jw: ed.JordanWigner, parity: ed.Sectors,
                 number: ed.Sectors) -> dict:
    """The worst error of every per-chain check on one chain.  H, its
    eigensystem (per parity sector), the isotropic (gamma = 0) H, its
    eigensystem (per number sector) and one Bogoliubov decomposition are
    built once and shared."""
    n = chain.n
    iso = ChainSpec(n=n, mu=chain.mu, gamma=(0.0,) * (n - 1), nu=chain.nu)
    H = ed.build_H(chain)
    # H = sum_pq M_pq o_p^* o_q and H_iso = sum(nu) + 2 sum_jk A_jk c_j^* c_k,
    # 2A sitting on the (c_j^*, c_k) entries of the interleaved X_iso
    quadratic = check_quadratic_form(H, build_M(chain), jw)
    eig = ed.spectral(H, parity)
    H_iso = ed.build_H(iso)
    X_iso = np.zeros((2 * n, 2 * n))
    X_iso[::2, ::2] = 2.0 * build_A(iso)
    isotropic = check_quadratic_form(H_iso, X_iso, jw, float(np.sum(iso.nu)))
    iso_eig = ed.spectral(H_iso, number)
    bog = bogoliubov(chain)
    g_err, s_err = check_eigenstates(bog, eig, jw)
    return {
        "spectrum": check_spectrum(bog, eig),
        "quadratic_identity": quadratic,
        "isotropic_identity": isotropic,
        "occupation": check_occupation(iso, iso_eig),
        "eigenstate_gamma": g_err,
        "thermal_gamma": check_thermal(bog, eig, jw, 0.8),
        "entropy": s_err,
        "evolved_gamma": check_evolution(bog, eig, jw, 0.7),
    }


def check_quadratic_form(H: dict, X: np.ndarray, jw: ed.JordanWigner,
                         constant: float = 0.0) -> float:
    """Worst entry of constant + sum_pq X_pq o_p^* o_q - H, one bit-flip
    diagonal at a time: o_p^* o_q = o_{p^1} o_q flips the same bits of
    every basis state, so each nonzero X_pq adds X_pq sgn to the diagonal
    of its mask tgt[0], and each entry sums its terms in the order of
    np.nonzero(X)."""
    form = {}
    for p, q in zip(*np.nonzero(X)):
        tgt, sgn = jw.product(p ^ 1, q)
        mask = int(tgt[0])
        form[mask] = form.get(mask, 0.0) + X[p, q] * sgn
    form[0] = form.get(0, 0.0) + constant
    return max(float(np.max(np.abs(form.get(m, 0.0) - H.get(m, 0.0)))) for m in form.keys() | H.keys())


def check_car(jw: ed.JordanWigner) -> float:
    """Worst entry of {o_p, o_q} - delta_{q, p^1} over the interleaved
    pairs p <= q: {c_j, c_k^*} = delta_jk, {c_j, c_k} = 0 and adjoints.
    Column s holds o_p o_q e_s, o_q o_p e_s and -delta e_s at up to three
    targets; each target's entry sums the terms that land on it."""
    m, dim = jw.tgt.shape
    s = np.arange(dim)
    worst = 0.0
    for p in range(m):
        qs = np.arange(p, m)
        t1, v1 = jw.product(p, qs)
        t2, v2 = jw.product(qs, p)
        d = np.where(qs == p ^ 1, -1.0, 0.0)[:, None]
        for t in (t1, t2, s):
            entry = v1 * (t1 == t) + v2 * (t2 == t) + d * (s == t)
            worst = max(worst, float(np.max(np.abs(entry))))
    return worst


def check_spectrum(bog: BogoliubovDecomposition, eig: ed.SectorEigensystem) -> float:
    """Worst gap between the 2^n mode-sum energies and the oracle spectrum."""
    return float(np.max(np.abs(np.sort(all_many_body_energies(bog)) - eig.energies)))


def check_eigenstates(bog: BogoliubovDecomposition, eig: ed.SectorEigensystem,
                      jw: ed.JordanWigner) -> tuple:
    """Worst errors (gamma, entropy) of the eigenstate correlation matrices
    and of the cut entropies (every cut 1 <= ell < n of (1, n // 2, n - 1),
    scored by the batched _label_entropies that entanglement_static runs)
    of the labels 0, 1 and 2^n - 1 (every label at n <= 3) whose oracle
    match is unambiguous."""
    n = bog.n
    labels = [0, 1, (1 << n) - 1] if n > 3 else list(range(2**n))
    idxs, flags = ed.match_eigenstates(all_many_body_energies(bog)[labels], eig.energies)
    alphas = alpha_from_index(np.array(labels)[~flags, None], n)
    cuts = [ell for ell in (1, n // 2, n - 1) if 1 <= ell < n]
    scores = {ell: ent._label_entropies(bog, ell, alphas) for ell in cuts}
    g_err = s_err = 0.0
    for r, (alpha, k) in enumerate(zip(alphas, idxs[~flags])):
        gamma = eigenstate_gamma(bog, alpha)
        psi = eig.vector(k)
        g_ed = ed.correlation_blocks(psi, jw)
        g_err = max(g_err, float(np.max(np.abs(gamma - g_ed))))
        for ell in cuts:
            s_free = float(scores[ell][r])
            # both sides of a pure state's cut share one spectrum: reduce onto
            # the smaller side, swapping psi's two blocks when that is the right
            small = psi if 2 * ell <= n else psi.reshape(2**ell, -1).T.ravel()
            s_ed = ed.von_neumann_entropy(ed.reduced_density(small, n, min(ell, n - ell)))
            s_err = max(s_err, abs(s_free - s_ed))
    return g_err, s_err


def check_thermal(bog: BogoliubovDecomposition, eig: ed.SectorEigensystem,
                  jw: ed.JordanWigner, beta: float) -> float:
    """Worst error of the Gibbs correlation matrix at inverse temperature
    beta, against the oracle's Gibbs state held as its parity blocks."""
    rho = ed.thermal_state(eig, beta)
    return float(np.max(np.abs(thermal_gamma(bog, beta) - ed.correlation_blocks(rho, jw, eig.sectors))))


def check_evolution(bog: BogoliubovDecomposition, eig: ed.SectorEigensystem,
                    jw: ed.JordanWigner, t: float) -> float:
    """Worst error of the correlation matrix at time t evolved from the
    basis state with sites 1, 3, 5, ... occupied.  An eigenstate's gamma
    commutes with M and would not move; this product state's currents do
    (site 1 is the top bit; 0 is up).  It has a definite parity, so only
    its own sector's eigenvectors evolve it."""
    n = bog.n
    occupied = np.arange(n) % 2 == 0
    psi0 = np.zeros(2**n)
    psi0[int("".join("0" if o else "1" for o in occupied), 2)] = 1.0
    gt = evolve_gamma(profile_gamma(occupied), bog, t)
    psit = ed.schroedinger_evolve_state(psi0, eig, t)
    return float(np.max(np.abs(gt - ed.correlation_blocks(psit, jw))))


def check_occupation(chain: ChainSpec, eig: ed.SectorEigensystem) -> float:
    """Worst error of the site occupations of the mode configurations 1, 3
    and 2^n - 1 (every nonempty one at n <= 3) against the oracle's <n_x>
    (|psi|^2 on the bit mask of x), on the particle-conserving chain with
    its oracle eigensystem eig."""
    n = chain.n
    sdA = diagonalize_A(chain)
    masks = np.array([ed.occupation_mask(n, x) for x in range(1, n + 1)])
    o_err = 0.0
    labels = [1, 3, (1 << n) - 1] if n > 3 else list(range(1, 2**n))
    for a in labels:
        k_modes = tuple(int(j) + 1 for j in np.nonzero(alpha_from_index(a, n))[0])
        e_free = 2.0 * np.sum(sdA.eigenvalues[np.array(k_modes) - 1]) + np.sum(chain.nu)
        j_idx, j_flags = ed.match_eigenstates([e_free], eig.energies)
        if j_flags[0]:
            continue
        occ_ed = masks @ eig.vector(j_idx[0]) ** 2
        for x in range(1, n + 1):
            occ_free = occupation_number(sdA.eigenvectors, k_modes, x)
            o_err = max(o_err, abs(occ_free - occ_ed[x - 1]))
    return o_err
