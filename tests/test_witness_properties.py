"""Properties of the cut layer on random systems of 2 to 7 qubits.

Every qubit tunnels (``delta_i >= 0.1``), so each ground state is unique;
examples whose gap still falls below the degeneracy tolerance are rejected.
Generation is derandomized, so every run checks the same examples.
"""

import numpy as np
from conftest import per_cut_w_tilde
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from witness_lab import (
    Bipartition,
    DegenerateGroundError,
    QubitSystem,
    build_hamiltonian,
    check_pinned_pairs,
    count_crossing_couplings,
    cross_susceptibility_matrix,
    diagonalize,
    enumerate_bipartitions,
    ground_state,
    is_separable,
    witness_report,
)

PROPERTY = settings(max_examples=40, derandomize=True, deadline=None, database=None)

coefficients = st.floats(-1.0, 1.0, allow_subnormal=False)


@st.composite
def systems_with_cut(draw):
    """A random system and a random canonical cut of it."""
    n = draw(st.integers(2, 7))
    delta = draw(st.lists(st.floats(0.1, 1.0), min_size=n, max_size=n))
    h = draw(st.lists(coefficients, min_size=n, max_size=n))
    pairs = n * (n - 1) // 2
    upper = draw(st.lists(coefficients, min_size=pairs, max_size=pairs))
    J = np.zeros((n, n))
    J[np.triu_indices(n, 1)] = upper
    mask = 2 * draw(st.integers(0, (1 << (n - 1)) - 2)) + 1
    return QubitSystem(delta=delta, h=h, J=J + J.T), Bipartition(mask, n)


def gated_report(system):
    spec = diagonalize(build_hamiltonian(system))
    try:
        return spec, witness_report(spec, system)
    except DegenerateGroundError:
        assume(False)


@PROPERTY
@given(systems_with_cut())
def test_witnesses_lie_in_unit_interval(case):
    system, _ = case
    _, report = gated_report(system)
    assert all(0.0 <= cut.w_ab < 1.0 for cut in report.cuts)
    assert 0.0 <= report.w_global < 1.0


@PROPERTY
@given(systems_with_cut())
def test_n_ab_matches_brute_count(case):
    system, _ = case
    n, J = system.n, system.J
    threshold = 1e-12 * max(1.0, float(np.abs(J).max()))
    expected = [
        sum(
            cut.crosses(i, j) and abs(J[i, j]) > threshold
            for i in range(n)
            for j in range(i + 1, n)
        )
        for cut in enumerate_bipartitions(n)
    ]
    assert count_crossing_couplings(system).tolist() == expected


@PROPERTY
@given(systems_with_cut())
def test_w_tilde_is_bitwise_the_per_cut_loop(case):
    system, _ = case
    spec, report = gated_report(system)
    chi = cross_susceptibility_matrix(spec)
    for cut in report.cuts:
        expected = per_cut_w_tilde(system, chi, cut.partition)
        assert repr(cut.w_tilde) == repr(float(expected))


@PROPERTY
@given(systems_with_cut())
def test_cut_without_couplings_is_silent_and_separable(case):
    system, cut = case
    J = np.array(system.J)
    for i in cut.members:
        J[i, list(cut.complement_members)] = 0.0
        J[list(cut.complement_members), i] = 0.0
    system = QubitSystem(delta=system.delta, h=system.h, J=J)
    spec, report = gated_report(system)
    row = report.cuts[cut.mask >> 1]
    assert row.partition.mask == cut.mask
    assert row.n_ab == 0 and row.w_ab == 0.0
    assert is_separable(ground_state(spec).vector, cut)


def test_sub_threshold_coupling_counts_nowhere():
    # J_12 = 1e-13 is below 1e-12 * max(1, max|J|): the witness sum, n_ab and
    # the pinned-pair check all leave the pair out. J_02 makes chi_12 large
    # enough that its term would show in w_tilde.
    system = QubitSystem.from_couplings(
        [0.8, 0.6, 0.7], [0.1, -0.2, 0.3], [(0, 1, 1.0), (0, 2, -0.5), (1, 2, 1e-13)]
    )
    spec = diagonalize(build_hamiltonian(system))
    chi = cross_susceptibility_matrix(spec)
    report = witness_report(spec, system)
    masks = [cut.partition.mask for cut in report.cuts]
    # {0, 2} | {1}: both pairs cross, only (0, 1) counts
    cut = report.cuts[masks.index(0b101)]
    assert cut.n_ab == 1
    assert cut.w_tilde == system.J[0, 1] * chi[0, 1]
    # {0, 1} | {2}: of the coupled pairs only (0, 2) crosses
    cut = report.cuts[masks.index(0b011)]
    assert cut.n_ab == 1
    assert cut.w_tilde == system.J[0, 2] * chi[0, 2]

    # qubit 0 has no tunneling and is pinned; qubits 1 and 2 tunnel and are
    # joined only by the sub-threshold coupling, so the ground state is a
    # product state within the Schmidt tolerance
    pinned = QubitSystem.from_couplings(
        [0.0, 0.6, 0.7], [2.0, -0.2, 0.3], [(0, 1, 1.0), (1, 2, 1e-13)]
    )
    gs = ground_state(diagonalize(build_hamiltonian(pinned)))
    assert check_pinned_pairs(gs.vector, pinned) == []
