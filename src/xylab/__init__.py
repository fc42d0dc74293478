"""xylab: localization diagnostics for the disordered XY chain.

Free-fermion reductions (one-particle matrices, mode decompositions,
correlation matrices) drive ensemble experiments on entanglement,
transport, commutator growth, and Fock-lattice overlaps, all
cross-checked against a brute-force full-Hilbert-space oracle.
"""

from .disorder import (
    ChainSpec,
    Distribution,
    EnsembleSpec,
    constant,
    make_chain,
    sample_chain,
    uniform,
)
from .hamiltonian import (
    BogoliubovDecomposition,
    SpectralDecomposition,
    all_many_body_energies,
    bogoliubov,
    build_A,
    build_B,
    build_M,
    diagonalize_A,
)
from .quasifree import (
    eigenstate_gamma,
    evolve_gamma,
    profile_gamma,
    sw_bound,
    thermal_gamma,
)
from .eigencorrelator import (
    DecayFit,
    dynamic_amplitude_sup,
    eigencorrelator_profile,
    eigencorrelator_table,
    fit_decay,
    lr_commutator_bound,
)
from .entanglement import max_eigenstate_entropy, ps_bound
from .fock import locate_centers, occupation_number, slater_overlap

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
