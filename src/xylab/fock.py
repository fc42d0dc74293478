"""Localization centers, eigenfunction decay certificates, and
Fock-lattice overlap diagnostics.

Each eigenvector of the one-particle matrix gets an injectively assigned
center site via maximum bipartite matching on its large-component set;
certified exponential decay around the centers then controls both the
Slater-determinant overlaps between interacting and non-interacting
many-body eigenbases (through the structured-determinant bound) and the
local occupation numbers of configurations with no particle nearby.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .eigencorrelator import DecayFit
from .hamiltonian import SpectralDecomposition
from .quasifree import configuration_distance, ordered_configuration, sw_bound

_MAX_PAIR_TRIES = 200000  # draws before sample_configuration_pairs gives up


def hopcroft_karp(adjacency: list, n_right: int) -> list:
    """Maximum-cardinality matching of a bipartite graph.

    adjacency[u] lists the right-vertices reachable from left-vertex u;
    returns match_left with match_left[u] = matched right vertex or -1.
    """
    n_left = len(adjacency)
    INF = n_left + n_right + 1
    match_l = [-1] * n_left
    match_r = [-1] * n_right
    dist = [0] * n_left

    def bfs() -> bool:
        queue = deque()
        found = False
        for u in range(n_left):
            if match_l[u] == -1:
                dist[u] = 0
                queue.append(u)
            else:
                dist[u] = INF
        free_dist = INF
        while queue:
            u = queue.popleft()
            if dist[u] < free_dist:
                for v in adjacency[u]:
                    w = match_r[v]
                    if w == -1:
                        free_dist = dist[u] + 1
                        found = True
                    elif dist[w] == INF:
                        dist[w] = dist[u] + 1
                        queue.append(w)
        return found

    def dfs(u: int) -> bool:
        for v in adjacency[u]:
            w = match_r[v]
            if w == -1 or (dist[w] == dist[u] + 1 and dfs(w)):
                match_l[u] = v
                match_r[v] = u
                return True
        dist[u] = INF
        return False

    while bfs():
        for u in range(n_left):
            if match_l[u] == -1:
                dfs(u)
    return match_l


@dataclass
class CenterAssignment:
    """Injective eigenvector -> site map; matched is True when the large
    component sets admitted a perfect matching, fallback_count counts
    greedy repairs otherwise."""

    centers: tuple
    matched: bool
    fallback_count: int


def locate_centers(sd: SpectralDecomposition, alpha: float) -> CenterAssignment:
    """Assign a center site to each eigenvector.

    Candidate sites for eigenvector r are those with |phi_r(j)| >= n^-alpha;
    a maximum matching on that bipartite graph yields injective centers
    (a perfect matching exists in exact arithmetic for alpha > 1).
    Unmatched eigenvectors fall back to their largest components, with
    injectivity repaired greedily by next-largest ones.
    """
    if alpha <= 1:
        raise ValueError(f"alpha must exceed 1, got {alpha}")
    V = np.abs(sd.eigenvectors)
    n = V.shape[0]
    thresh = float(n) ** (-alpha)
    rows, sites = np.nonzero(V.T >= thresh)  # row-major: eigenvector by eigenvector
    adjacency = [a.tolist() for a in np.split(sites, np.searchsorted(rows, np.arange(1, n)))]
    match = hopcroft_karp(adjacency, n)
    matched = all(m != -1 for m in match)
    centers = list(match)
    fallback = 0
    if not matched:
        taken = set(m for m in match if m != -1)
        for r in range(n):
            if centers[r] == -1:
                fallback += 1
                for j in np.argsort(-V[:, r]):
                    if int(j) not in taken:
                        centers[r] = int(j)
                        taken.add(int(j))
                        break
    return CenterAssignment(
        centers=tuple(c + 1 for c in centers),
        matched=matched,
        fallback_count=fallback,
    )


def decay_envelope(sd: SpectralDecomposition, centers: CenterAssignment) -> np.ndarray:
    """Entry d (0 <= d < n): the largest |phi_r(j)| over all entries at
    distance |j - k_r| = d from their eigenvector's center (0 where no
    entry lies that far)."""
    V = np.abs(sd.eigenvectors)
    n = V.shape[0]
    shifted = np.zeros((2 * n - 1, n))  # column r moved so its center lands on row n - 1
    shifted[np.arange(n)[:, None] - np.asarray(centers.centers) + n, np.arange(n)] = V
    peak = shifted.max(axis=1)  # row n - 1 +- d: the largest entry d sites from its center
    return np.maximum(peak[n - 1:], peak[n - 1::-1])


def certify_decay(envelopes: np.ndarray, eta: float, tau: float) -> np.ndarray:
    """Whether |phi_r(j)| <= exp(-eta |j - k_r|) at every separation
    >= n^tau, read off the decay envelope: every entry at separation d
    faces the same bound, so the largest one decides.  One verdict per
    envelope, for one of shape (n,) or a stack of shape (R, n)."""
    if eta <= 0:
        raise ValueError(f"eta must be positive, got {eta}")
    if not 0 < tau < 1:
        raise ValueError(f"tau must lie in (0, 1), got {tau}")
    envelopes = np.asarray(envelopes)
    d = np.arange(envelopes.shape[-1])
    far = d >= float(len(d)) ** tau
    return np.all(envelopes[..., far] <= np.exp(-eta * d[far]), axis=-1)


def slater_overlap(U: np.ndarray, k_config, j_config) -> float:
    """Signed overlap between the interacting eigenstate occupying modes
    k and the spin basis vector with up-spins at sites j:

        (-1)^(sum j_m - r) det( phi_{k_m}(j_l) ),

    with phi_k = column k of U.  Different cardinalities give exact 0
    (particle number conservation).
    """
    n = U.shape[0]
    k = ordered_configuration(k_config, n)
    j = ordered_configuration(j_config, n)
    if len(k) != len(j):
        return 0.0
    if len(k) == 0:
        return 1.0
    r = len(k)
    sub = U[np.array(j)[None, :] - 1, np.array(k)[:, None] - 1]  # rows modes, cols sites
    sign = -1.0 if (sum(j) - r) % 2 else 1.0
    return float(sign * np.linalg.det(sub))


def occupation_number(U: np.ndarray, k_config, x: int) -> float:
    """Occupation of site x in the eigenstate with modes k: the exact
    identity sum_m |phi_{k_m}(x)|^2."""
    n = U.shape[0]
    k = ordered_configuration(k_config, n)
    if not 1 <= x <= n:
        raise ValueError(f"site {x} outside [1, {n}]")
    if not k:
        return 0.0
    return float(np.sum(U[x - 1, np.array(k) - 1] ** 2))


def sample_configuration_pairs(n: int, tau: float, count: int, seed: int, r_max: int) -> list:
    """Sample (k, j) configuration pairs with equal cardinality r in
    [1, r_max] conditioned on D(k, j) >= 2 n^tau, fixed seed."""
    rng = np.random.default_rng(seed)
    dmin = 2.0 * float(n) ** tau
    pairs = []
    tries = 0
    while len(pairs) < count and tries < _MAX_PAIR_TRIES:
        tries += 1
        r = int(rng.integers(1, r_max + 1))
        k = tuple(sorted(rng.choice(n, size=r, replace=False) + 1))
        j = tuple(sorted(rng.choice(n, size=r, replace=False) + 1))
        if configuration_distance(k, j) >= dmin:
            pairs.append((k, j))
    if len(pairs) < count:
        raise ValueError(f"could not sample {count} pairs with D >= {dmin:.1f} at n={n}")
    return pairs


def pair_overlaps(U: np.ndarray, pairs) -> np.ndarray:
    """|slater_overlap(U, k, j)| of every sampled pair (k, j), in order."""
    return np.array([abs(slater_overlap(U, k, j)) for k, j in pairs])


def fock_localization_check(overlaps, pairs, n: int, fit: DecayFit, tau: float, eta0: float,
                            eta: float) -> np.ndarray:
    """Pass fraction of the configuration-distance decay of the basis
    overlaps |overlap(k, j)| of the pairs (from pair_overlaps) at chain
    size n:

        |overlap(k, j)| <= n^{2 tau} sw_bound(n^tau, eta0, eta, C, D(k, j)),

    the determinant bound for the growth profile thresholded at n^tau,
    with C the fitted prefactor.  Takes one overlap vector of shape
    (pairs,) or a stack of shape (R, pairs), bounds each pair once and
    gives one fraction per vector.  Pairs violating D >= 2 n^tau are
    skipped; with none left the fraction is 1.
    """
    overlaps = np.asarray(overlaps, dtype=float)
    if overlaps.shape[-1] != len(pairs):
        raise ValueError(f"{overlaps.shape[-1]} overlaps for {len(pairs)} pairs")
    cut = float(n) ** tau
    D = np.array([configuration_distance(k, j) for k, j in pairs], dtype=float)
    bound = float(n) ** (2.0 * tau) * sw_bound(cut, eta0, eta, fit.C, D)
    far = D >= 2.0 * cut
    if not far.any():
        return np.ones(overlaps.shape[:-1])
    return np.mean(overlaps[..., far] <= bound[far], axis=-1)
