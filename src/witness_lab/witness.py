"""Entanglement witnesses built from couplings and cross-susceptibilities.

For a cut of the qubit set into parts A and B, the signed quantity

    w_tilde(A, B) = sum over coupled pairs crossing the cut of J_ij * chi_ij

vanishes whenever the (nondegenerate, real) ground state factorizes across
the cut, so a nonzero value certifies entanglement between A and B. The
normalized per-cut witness ``|w~| / (N_AB + |w~|)`` and the geometric-mean
global witness over all cuts are both bounded in [0, 1). A path-based
witness ``sum_{i<j} |J_ij * chi_i * chi_j|`` with chi taken along a sweep
direction certifies entanglement without resolving individual cuts.

A nonzero witness is sufficient evidence, never necessary: silent witnesses
prove nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import MAX_QUBITS, AffinePath, QubitSystem
from .observables import (
    cross_susceptibility_matrix,
    ground_sz_on_path,
    resolve_fd_step,
    susceptibility_sos,
)
from .spectrum import DegenerateGroundError, GroundState, Spectrum, ground_state

COUPLING_RTOL = 1e-12  # |J_ij| above 1e-12 * max(1, max|J|) counts as a coupling


@dataclass(frozen=True)
class Bipartition:
    """A cut of ``n`` qubits: qubit ``i`` belongs to part A iff bit ``i`` of
    ``mask`` is set; part B is the complement.

    Canonical form puts qubit 0 in A, which deduplicates complements;
    ``enumerate_bipartitions`` yields only canonical cuts, but non-canonical
    masks are accepted so that a cut and its complement can both be evaluated.
    """

    mask: int
    n: int

    def __post_init__(self):
        if not 2 <= self.n:
            raise ValueError(f"a bipartition needs at least 2 qubits, got n={self.n}")
        full = (1 << self.n) - 1
        if not 0 < self.mask < full:
            raise ValueError(
                f"mask {self.mask:#x} must select a nonempty proper subset of {self.n} qubits"
            )

    @property
    def members(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.n) if self.mask >> i & 1)

    @property
    def complement_members(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.n) if not self.mask >> i & 1)

    @property
    def is_canonical(self) -> bool:
        return bool(self.mask & 1)

    def complement(self) -> "Bipartition":
        return Bipartition(mask=((1 << self.n) - 1) ^ self.mask, n=self.n)

    def canonical(self) -> "Bipartition":
        return self if self.is_canonical else self.complement()

    def crosses(self, i: int, j: int) -> bool:
        """True when qubits ``i`` and ``j`` sit on opposite sides of the cut."""
        return bool((self.mask >> i & 1) != (self.mask >> j & 1))


def enumerate_bipartitions(n: int) -> list[Bipartition]:
    """All canonical cuts of ``n`` qubits, ascending by mask.

    There are exactly ``2^(n-1) - 1`` of them: every subset containing
    qubit 0 except the full set.
    """
    if not 2 <= n <= MAX_QUBITS:
        raise ValueError(f"bipartitions require 2 <= n <= {MAX_QUBITS}, got n={n}")
    full = (1 << n) - 1
    return [Bipartition(mask=m, n=n) for m in range(1, full, 2)]


def coupling_threshold(J: np.ndarray) -> float | np.ndarray:
    """Value ``|J_ij|`` must exceed to count as a coupling, per matrix over
    the last two axes (leading axes are a batch)."""
    return COUPLING_RTOL * np.maximum(1.0, np.abs(J).max(axis=(-2, -1)))


def count_crossing_couplings(system: QubitSystem, partition: Bipartition) -> int:
    """Number of couplings above threshold that cross the cut."""
    if partition.n != system.n:
        raise ValueError(
            f"partition is over {partition.n} qubits but system has {system.n}"
        )
    thresh = coupling_threshold(system.J)
    count = 0
    for i in range(system.n):
        for j in range(i + 1, system.n):
            if partition.crosses(i, j) and abs(system.J[i, j]) > thresh:
                count += 1
    return count


def witness_ab(w_tilde: float, n_ab: int) -> float:
    """Normalized per-cut witness ``|w~| / (n_ab + |w~|)`` in [0, 1).

    A cut with no couplings can never be certified by this witness, so
    ``n_ab = 0`` maps to 0 by convention.
    """
    if n_ab < 0:
        raise ValueError(f"n_ab must be nonnegative, got {n_ab}")
    if n_ab == 0:
        return 0.0
    magnitude = abs(float(w_tilde))
    return magnitude / (n_ab + magnitude)


def _tilde_from_chi(
    system: QubitSystem, partition: Bipartition, chi: np.ndarray
) -> float:
    # Unordered pairs in lexicographic order: the crossing set and the
    # summation order are invariant under swapping A and B, so the value for
    # a cut and its complement is bit-identical.
    total = 0.0
    for i in range(system.n):
        for j in range(i + 1, system.n):
            if partition.crosses(i, j) and system.J[i, j] != 0.0:
                total += system.J[i, j] * chi[i, j]
    return total


def witness_tilde_ab(
    spec: Spectrum,
    system: QubitSystem,
    partition: Bipartition,
    deg_tol: float | None = None,
) -> float:
    """Signed cut witness: coupling-weighted sum of crossing susceptibilities.

    Returns exactly 0.0 for cuts with no crossing couplings, without
    computing any susceptibility.
    """
    # Witness values are statements about a unique ground state; refuse to
    # produce one (even a conventional zero) when the ground is degenerate.
    ground_state(spec, deg_tol)
    if count_crossing_couplings(system, partition) == 0:
        return 0.0
    total = 0.0
    for i in range(system.n):
        for j in range(i + 1, system.n):
            if partition.crosses(i, j) and system.J[i, j] != 0.0:
                total += system.J[i, j] * susceptibility_sos(spec, i, j, deg_tol)
    return total


@dataclass(frozen=True, eq=False)
class CutWitness:
    partition: Bipartition
    w_tilde: float
    n_ab: int
    w_ab: float


@dataclass(frozen=True, eq=False)
class WitnessReport:
    """Per-cut witnesses for every bipartition plus the global aggregate.

    ``w_lambda`` is populated only when the report was computed along a
    sweep path; it stays ``None`` for a bare system.
    """

    cuts: list[CutWitness]
    w_lambda: float | None
    w_global: float


def _evaluate_cuts(
    ground: GroundState, chi: np.ndarray, system: QubitSystem
) -> list[CutWitness]:
    # Taking a GroundState means the degeneracy gate has passed: chi is only
    # meaningful for a unique ground state. Here only the shapes are checked.
    if ground.vector.shape != (system.dim,) or chi.shape != (system.n, system.n):
        raise ValueError(
            f"ground state of length {ground.vector.size} and chi of shape "
            f"{chi.shape} do not belong to a {system.n}-qubit system"
        )
    partitions = enumerate_bipartitions(system.n)
    cuts = []
    for partition in partitions:
        n_ab = count_crossing_couplings(system, partition)
        if n_ab == 0:
            w_tilde = 0.0
        else:
            w_tilde = _tilde_from_chi(system, partition, chi)
        cuts.append(
            CutWitness(
                partition=partition,
                w_tilde=w_tilde,
                n_ab=n_ab,
                w_ab=witness_ab(w_tilde, n_ab),
            )
        )
    return cuts


def _dense_cuts(
    spec: Spectrum, system: QubitSystem, deg_tol: float | None
) -> list[CutWitness]:
    ground = ground_state(spec, deg_tol)
    return _evaluate_cuts(ground, cross_susceptibility_matrix(spec, deg_tol), system)


def _global_from_cuts(cuts: list[CutWitness]) -> float:
    logs = []
    for cut in cuts:
        if cut.n_ab == 0 or cut.w_tilde == 0.0:
            return 0.0
        logs.append(math.log(abs(cut.w_tilde) / cut.n_ab))
    # Geometric mean through logs: the product over up to 2^(n-1) - 1 cuts
    # would overflow long before the mean does.
    mean_log = float(np.mean(logs))
    if mean_log > 0.0:
        return 1.0 / (1.0 + math.exp(-mean_log))
    g = math.exp(mean_log)
    return g / (1.0 + g)


def witness_global(
    spec: Spectrum, system: QubitSystem, deg_tol: float | None = None
) -> float:
    """Geometric-mean witness over all cuts, mapped into [0, 1).

    Any silent or uncoupled cut forces the result to exactly 0; a positive
    value certifies that every part is entangled with every other part.
    """
    if system.n < 2:
        raise ValueError(f"global witness requires n >= 2, got n={system.n}")
    return _global_from_cuts(_dense_cuts(spec, system, deg_tol))


def witness_lambda(
    path: AffinePath,
    lambda0: float = 0.0,
    step: float | None = None,
    deg_tol: float | None = None,
) -> float:
    """Path witness: sum of ``|J_ij * chi_i * chi_j|`` over unordered pairs.

    The susceptibilities are derivatives of every ``<sz_i>`` along the path,
    taken at ``lambda0`` with one shared central-difference stencil. Strictly
    positive values certify entanglement of the ground state at ``lambda0``.
    """
    system = path.at(lambda0)
    step = resolve_fd_step(step, system)
    plus = ground_sz_on_path(path, lambda0 + step, deg_tol)
    minus = ground_sz_on_path(path, lambda0 - step, deg_tol)
    chi = (plus - minus) / (2.0 * step)
    total = 0.0
    for i in range(system.n):
        for j in range(i + 1, system.n):
            total += abs(system.J[i, j] * chi[i] * chi[j])
    return total


def witness_report(
    spec: Spectrum,
    system: QubitSystem,
    deg_tol: float | None = None,
    path: AffinePath | None = None,
    lambda0: float = 0.0,
    fd_step: float | None = None,
) -> WitnessReport:
    """Assemble all per-cut witnesses and the global witness from a dense
    spectrum.

    When a ``path`` is supplied, ``w_lambda`` is evaluated at ``lambda0``;
    a degenerate difference stencil leaves it ``None`` instead of failing
    the whole report.
    """
    cuts = _dense_cuts(spec, system, deg_tol)
    w_lambda = None
    if path is not None:
        try:
            w_lambda = witness_lambda(path, lambda0, fd_step, deg_tol)
        except DegenerateGroundError:
            w_lambda = None
    return WitnessReport(
        cuts=cuts, w_lambda=w_lambda, w_global=_global_from_cuts(cuts)
    )


def assemble_witness_report(
    ground: GroundState, chi: np.ndarray, system: QubitSystem
) -> WitnessReport:
    """Per-cut and global witnesses from a gated ground state and its
    susceptibility matrix, as ``ground_response`` returns them; ``w_lambda``
    stays ``None``."""
    cuts = _evaluate_cuts(ground, chi, system)
    return WitnessReport(cuts=cuts, w_lambda=None, w_global=_global_from_cuts(cuts))
