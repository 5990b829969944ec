"""Brute-force separability ground truth via Schmidt decompositions.

A pure state factorizes across a cut exactly when the matrix of its
amplitudes, reshaped with the A-qubit bits as row index and B-qubit bits as
column index, has exactly one nonzero singular value. This is the oracle the
susceptibility witnesses are validated against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import QubitSystem, build_hamiltonian
from .observables import _check_normalized, _qubit_count, sigma_z_expectation
from .witness import Bipartition, coupled_pairs

SCHMIDT_TOL = 1e-7  # singular values below this count as zero
EIGENSTATE_RESIDUAL_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class SchmidtData:
    """Descending singular values of a state across one cut."""

    partition: Bipartition
    coefficients: np.ndarray
    rank: int


def _pack_bits(n: int, qubits: tuple[int, ...]) -> np.ndarray:
    """Index of the selected qubits' bits, ascending qubit order kept
    most-significant-first."""
    b = np.arange(1 << n)
    idx = np.zeros(b.size, dtype=np.int64)
    for k, q in enumerate(qubits):
        idx |= (((b >> (n - 1 - q)) & 1).astype(np.int64)) << (len(qubits) - 1 - k)
    return idx


def resolve_schmidt_tolerance(tol: float) -> float:
    """``tol`` as a float, or ``ValueError`` unless it lies in (0, 1).

    Schmidt coefficients of a normalized state are at most 1, so a
    threshold of 1 or more counts none of them and marks every state
    non-separable; zero or less counts numerical noise as rank."""
    tol = float(tol)
    if not 0.0 < tol < 1.0:
        raise ValueError(f"schmidt_tol must be in (0, 1), got {tol}")
    return tol


def schmidt_coefficients(
    state: np.ndarray, partition: Bipartition, tol: float = SCHMIDT_TOL
) -> SchmidtData:
    """Singular values of the state's amplitude matrix across the cut."""
    tol = resolve_schmidt_tolerance(tol)
    state = _check_normalized(state)
    n = _qubit_count(state.size)
    if partition.n != n:
        raise ValueError(f"partition is over {partition.n} qubits, state has {n}")
    rows = _pack_bits(n, partition.members)
    cols = _pack_bits(n, partition.complement_members)
    matrix = np.zeros((1 << len(partition.members), 1 << len(partition.complement_members)))
    matrix[rows, cols] = state
    coefficients = np.linalg.svd(matrix, compute_uv=False)
    coefficients.setflags(write=False)
    return SchmidtData(
        partition=partition,
        coefficients=coefficients,
        rank=int(np.sum(coefficients > tol)),
    )


def is_separable(
    state: np.ndarray, partition: Bipartition, tol: float = SCHMIDT_TOL
) -> bool:
    """True when the state factorizes across the cut (Schmidt rank 1)."""
    return schmidt_coefficients(state, partition, tol).rank == 1


def is_fully_separable(state: np.ndarray, tol: float = SCHMIDT_TOL) -> bool:
    """True when the state is a tensor product of single-qubit states.

    For pure states it suffices that every single-qubit-versus-rest cut has
    Schmidt rank 1; that is n cuts instead of all 2^(n-1) - 1.
    """
    state = _check_normalized(state)
    n = _qubit_count(state.size)
    if n == 1:
        return True
    return all(
        is_separable(state, Bipartition(mask=1 << i, n=n), tol) for i in range(n)
    )


def check_pinned_pairs(
    state: np.ndarray,
    system: QubitSystem,
    tol: float = SCHMIDT_TOL,
    schmidt_tol: float = SCHMIDT_TOL,
    residual_tol: float = EIGENSTATE_RESIDUAL_TOL,
) -> list[tuple[int, int]]:
    """Consequence check for fully separable eigenstates of z-coupled systems.

    Such an eigenstate must have, for every coupled pair (``coupled_pairs``),
    at least one qubit pinned to a sigma_z eigenstate (``|<sz>| = 1``).
    Returns the coupled pairs where ``max(|<sz_i>|, |<sz_j>|) < 1 - tol``;
    empty on success.

    Raises ``ValueError`` if the state is not an eigenstate of the system's
    Hamiltonian (residual above ``residual_tol``) or not fully separable.
    """
    state = _check_normalized(state)
    n = _qubit_count(state.size)
    if system.n != n:
        raise ValueError(f"system has {system.n} qubits, state has {n}")
    H = build_hamiltonian(system)
    energy = float(state @ (H @ state))
    residual = float(np.linalg.norm(H @ state - energy * state))
    if residual > residual_tol:
        raise ValueError(
            f"state is not an eigenstate: residual {residual:.3e} > {residual_tol:.3e}"
        )
    if not is_fully_separable(state, schmidt_tol):
        raise ValueError("state is not fully separable")
    violations = []
    sz = [abs(sigma_z_expectation(state, i)) for i in range(n)]
    coupled = coupled_pairs(system.J)
    for i in range(n):
        for j in range(i + 1, n):
            if coupled[i, j] and max(sz[i], sz[j]) < 1.0 - tol:
                violations.append((i, j))
    return violations
