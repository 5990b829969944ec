"""Transverse-field Ising qubit systems and their dense Hamiltonian matrices.

The Hamiltonian acting on ``n`` qubits is

    H = -1/2 sum_i delta_i sx_i  -  sum_i h_i sz_i  +  sum_{i<j} J_ij sz_i sz_j

where ``sx_i`` and ``sz_i`` are single-qubit Pauli operators embedded into the
full 2^n-dimensional space by tensoring with identities. All coefficients are
real, so every matrix produced here is real symmetric and real eigensolvers
apply downstream.

Basis convention shared by every module in this package: a basis state is an
integer index ``b`` in ``[0, 2^n)``, qubit ``i`` occupies bit ``n - 1 - i`` of
``b`` (qubit 0 is the most significant bit), and ``<b|sz_i|b> = +1`` exactly
when that bit is 0. This matches the left-to-right order of the Kronecker
products used to embed single-qubit operators.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

MAX_QUBITS = 12  # dense 2^n x 2^n storage; 4096 is the largest dimension


def _as_float_vector(values, name: str) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must contain only finite values")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class QubitSystem:
    """``n`` qubits with tunneling amplitudes, z biases and pair couplings.

    ``delta[i]`` and ``h[i]`` are the per-qubit tunneling and bias energies;
    ``J`` is the symmetric coupling matrix with zero diagonal. Instances are
    immutable: arrays are stored read-only, so a system can be shared freely
    across threads.
    """

    delta: np.ndarray
    h: np.ndarray
    J: np.ndarray

    def __post_init__(self):
        delta = _as_float_vector(self.delta, "delta")
        h = _as_float_vector(self.h, "h")
        n = delta.size
        if not 1 <= n <= MAX_QUBITS:
            raise ValueError(f"qubit count must be in [1, {MAX_QUBITS}], got {n}")
        if h.size != n:
            raise ValueError(f"h has length {h.size}, expected {n}")
        J = np.array(self.J, dtype=float)
        if J.shape != (n, n):
            raise ValueError(f"J has shape {J.shape}, expected ({n}, {n})")
        if not np.all(np.isfinite(J)):
            raise ValueError("J must contain only finite values")
        if not np.array_equal(J, J.T):
            raise ValueError("J must be symmetric")
        if np.any(np.diagonal(J) != 0.0):
            raise ValueError("J must have a zero diagonal")
        J.setflags(write=False)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "J", J)

    @classmethod
    def from_couplings(
        cls,
        delta: Sequence[float],
        h: Sequence[float],
        couplings: Iterable[tuple[int, int, float]] = (),
    ) -> "QubitSystem":
        """Build a system from an upper-triangle coupling list.

        Each entry is ``(i, j, value)`` with ``i < j``; the matrix is
        symmetrized internally. Listing the same pair twice is rejected
        rather than resolved last-wins.
        """
        n = len(delta)
        J = np.zeros((n, n))
        seen = set()
        for entry in couplings:
            i, j, value = entry
            if not (isinstance(i, int) and isinstance(j, int)):
                raise ValueError(f"coupling indices must be integers, got {entry!r}")
            if not 0 <= i < j < n:
                raise ValueError(
                    f"coupling ({i}, {j}) must satisfy 0 <= i < j < {n}"
                )
            if (i, j) in seen:
                raise ValueError(f"duplicate coupling entry for pair ({i}, {j})")
            seen.add((i, j))
            J[i, j] = J[j, i] = value
        return cls(delta=np.asarray(delta, dtype=float), h=np.asarray(h, dtype=float), J=J)

    @property
    def n(self) -> int:
        return self.delta.size

    @property
    def dim(self) -> int:
        return 1 << self.n

    @property
    def coefficient_scale(self) -> float:
        """Largest coefficient magnitude; 0.0 only for the all-zero system."""
        return float(
            max(np.abs(self.delta).max(), np.abs(self.h).max(), np.abs(self.J).max())
        )


@dataclass(frozen=True, eq=False)
class AffinePath:
    """Affine one-parameter family of systems: coefficients of ``base`` shifted
    by ``lam`` times those of ``direction``.

    Covers uniform-bias and single-qubit-bias sweeps; nonlinear parameter maps
    are out of scope.
    """

    base: QubitSystem
    direction: QubitSystem

    def __post_init__(self):
        if self.base.n != self.direction.n:
            raise ValueError(
                f"base has {self.base.n} qubits but direction has {self.direction.n}"
            )

    @property
    def n(self) -> int:
        return self.base.n

    def at(self, lam: float) -> QubitSystem:
        """System at parameter value ``lam``."""
        lam = float(lam)
        if not np.isfinite(lam):
            raise ValueError(f"path parameter must be finite, got {lam}")
        # An overflowing coefficient is rejected by QubitSystem, not warned of.
        with np.errstate(over="ignore", invalid="ignore"):
            return QubitSystem(
                delta=self.base.delta + lam * self.direction.delta,
                h=self.base.h + lam * self.direction.h,
                J=self.base.J + lam * self.direction.J,
            )

    def coefficients(self, grid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(delta, h, J)`` at every value of ``grid``, stacked along a
        leading axis of shapes ``(m, n)``, ``(m, n)`` and ``(m, n, n)``.

        Row ``k`` is bitwise the coefficients of ``at(grid[k])``: the same
        element-wise ``base + lam * direction``. Finiteness is checked once
        for the whole grid; symmetry and the zero diagonal of ``J`` carry
        over from ``base`` and ``direction``.
        """
        lam = np.asarray(grid, dtype=float).reshape(-1)
        # In-place adds save a temporary; IEEE addition is commutative, so
        # ``x += base`` is bitwise ``base + x``. Overflow is reported by the
        # finiteness check below, not as a warning.
        with np.errstate(over="ignore", invalid="ignore"):
            delta = lam[:, None] * self.direction.delta
            delta += self.base.delta
            h = lam[:, None] * self.direction.h
            h += self.base.h
            J = lam[:, None, None] * self.direction.J
            J += self.base.J
        finite = (
            np.isfinite(lam)
            & np.isfinite(delta).all(axis=1)
            & np.isfinite(h).all(axis=1)
            & np.isfinite(J).all(axis=(1, 2))
        )
        if not finite.all():
            bad = float(lam[np.argmin(finite)])
            raise ValueError(f"path coefficients are not finite at lambda={bad!r}")
        return delta, h, J


def sigma_z_diagonal(i: int, n: int) -> np.ndarray:
    """Diagonal of the embedded ``sz_i`` operator: +-1 per basis state."""
    if not 0 <= i < n <= MAX_QUBITS:
        raise ValueError(f"require 0 <= i < n <= {MAX_QUBITS}, got i={i}, n={n}")
    bits = (np.arange(1 << n) >> (n - 1 - i)) & 1
    return 1.0 - 2.0 * bits


@lru_cache(maxsize=None)
def sigma_z_table(n: int) -> np.ndarray:
    """Read-only ``(n, 2^n)`` table whose row ``i`` is ``sigma_z_diagonal(i, n)``.

    Cached per ``n``: the Hamiltonian builder and ``<sz>`` profiles share it.
    """
    if not 1 <= n <= MAX_QUBITS:
        raise ValueError(f"qubit count must be in [1, {MAX_QUBITS}], got {n}")
    table = np.vstack([sigma_z_diagonal(i, n) for i in range(n)])
    table.setflags(write=False)
    return table


def build_hamiltonian(system: QubitSystem) -> np.ndarray:
    """Dense real symmetric Hamiltonian matrix of a qubit system.

    Entrywise identical (not merely close) to summing the embedded Pauli
    terms in the canonical order: all transverse terms, then all bias terms,
    then couplings over pairs ``i < j``. The one-point case of
    ``build_hamiltonians``.
    """
    return build_hamiltonians(system.delta[None], system.h[None], system.J[None])[0]


def build_hamiltonians(delta: np.ndarray, h: np.ndarray, J: np.ndarray) -> np.ndarray:
    """Dense Hamiltonians for a batch of coefficient sets.

    ``delta`` and ``h`` have shape ``(m, n)`` and ``J`` has shape
    ``(m, n, n)``, as ``AffinePath.coefficients`` returns them; the result
    has shape ``(m, 2^n, 2^n)``. The coefficients must already be valid
    (finite, ``J`` symmetric with zero diagonal, ``n <= MAX_QUBITS``), as
    ``QubitSystem`` and ``AffinePath.coefficients`` leave them; a diagonal
    that overflows raises ``ValueError``. So every matrix returned is
    finite, symmetric and of dimension at most 4096, and the dense solvers
    that take built Hamiltonians do not validate them again. The transverse
    part places ``-delta_i/2`` at index pairs differing in exactly the bit
    of qubit ``i``, all qubits in one scatter; the diagonal carries the bias
    and coupling terms.
    """
    m, n = delta.shape
    dim = 1 << n
    idx = np.arange(dim)
    bits = 1 << np.arange(n - 1, -1, -1)  # qubit i is bit n - 1 - i

    H = np.zeros((m, dim, dim))
    # Each off-diagonal entry holds one term; "+ 0.0" turns -0.0 into 0.0,
    # as adding the term to a zero entry does.
    H[:, idx, idx ^ bits[:, None]] = (-0.5 * delta + 0.0)[:, :, None]
    H[:, idx, idx] += hamiltonian_diagonals(h, J)
    return H


def hamiltonian_diagonal(system: QubitSystem) -> np.ndarray:
    """Diagonal of the Hamiltonian; the one-point case of
    ``hamiltonian_diagonals``."""
    return hamiltonian_diagonals(system.h[None], system.J[None])[0]


def hamiltonian_diagonals(h: np.ndarray, J: np.ndarray) -> np.ndarray:
    """Diagonals of a batch of Hamiltonians, shape ``(m, 2^n)``: the bias and
    coupling terms, accumulated in the canonical order (all biases, then
    pairs ``i < j``). ``ValueError`` when a sum overflows the float range."""
    m, n = h.shape
    signs = sigma_z_table(n)
    diag = np.zeros((m, 1 << n))
    with np.errstate(over="ignore"):  # reported below
        for i in range(n):
            diag += -h[:, i, None] * signs[i]
        for i in range(n):
            for j in range(i + 1, n):
                diag += J[:, i, j, None] * (signs[i] * signs[j])
    if not np.isfinite(diag).all():
        raise ValueError("matrix must contain only finite values")
    return diag
