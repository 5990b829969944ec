"""Exact diagonalization of transverse-field Ising qubit systems with
susceptibility-based entanglement witnesses, path certification, and a
brute-force separability oracle to check them against."""

from .model import (
    MAX_QUBITS,
    AffinePath,
    QubitSystem,
    build_hamiltonian,
    build_hamiltonians,
)
from .observables import (
    cross_susceptibility_matrix,
    ground_response,
    ground_sz_on_path,
    sigma_z_profile,
)
from .separability import (
    SCHMIDT_TOL,
    check_pinned_pairs,
    is_fully_separable,
    is_separable,
)
from .spectrum import (
    DegenerateGroundError,
    GroundState,
    Spectrum,
    diagonalize,
    ground_state,
)
from .sweep import (
    CertificationReport,
    SweepConfig,
    SweepPoint,
    SweepResult,
    certify_entanglement_on_path,
    detect_anticrossings,
    run_sweep,
)
from .witness import (
    Bipartition,
    CutWitness,
    WitnessReport,
    count_crossing_couplings,
    coupled_pairs,
    crossing_table,
    solve_witness_report,
    witness_ab,
    witness_lambda,
    witness_report,
)

__all__ = [
    "MAX_QUBITS",
    "SCHMIDT_TOL",
    "AffinePath",
    "Bipartition",
    "CertificationReport",
    "CutWitness",
    "DegenerateGroundError",
    "GroundState",
    "QubitSystem",
    "Spectrum",
    "SweepConfig",
    "SweepPoint",
    "SweepResult",
    "WitnessReport",
    "build_hamiltonian",
    "build_hamiltonians",
    "certify_entanglement_on_path",
    "check_pinned_pairs",
    "count_crossing_couplings",
    "coupled_pairs",
    "cross_susceptibility_matrix",
    "crossing_table",
    "detect_anticrossings",
    "diagonalize",
    "ground_response",
    "ground_state",
    "ground_sz_on_path",
    "is_fully_separable",
    "is_separable",
    "run_sweep",
    "sigma_z_profile",
    "solve_witness_report",
    "witness_ab",
    "witness_lambda",
    "witness_report",
]
