"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or in
captured output) and enforces its runtime budget.
"""

import resource
import time

import numpy as np
import pytest
from conftest import (
    crosses,
    default_fd_step,
    random_couplings,
    sigma_z_expectation,
    susceptibility_fd,
)

from witness_lab import (
    AffinePath,
    Bipartition,
    DegenerateGroundError,
    QubitSystem,
    SweepConfig,
    build_hamiltonian,
    certify_entanglement_on_path,
    cross_susceptibility_matrix,
    detect_anticrossings,
    diagonalize,
    ground_response,
    ground_state,
    is_fully_separable,
    is_separable,
    run_sweep,
    witness_report,
)
from witness_lab.separability import schmidt_coefficients


def _report(num: int, label: str, ok: bool, detail: str, started: float, budget: float):
    elapsed = time.monotonic() - started
    status = "PASS" if ok and elapsed <= budget else "FAIL"
    print(f"criterion {num} [{label}]: {status} ({elapsed:.2f}s) {detail}")
    assert ok, f"criterion {num} failed: {detail}"
    assert elapsed <= budget, f"criterion {num} overran its {budget}s budget: {elapsed:.2f}s"


def random_canonical_cut(rng, n):
    return Bipartition((int(rng.integers(0, (1 << (n - 1)) - 1)) << 1) | 1, n)


def cut_w_tilde(spec, system, cut):
    """``w_tilde`` of a canonical ``cut`` from the dense witness report."""
    return witness_report(spec, system).cuts[cut.mask >> 1].w_tilde


def test_criterion_1_witness_soundness_on_disconnected_cuts():
    started = time.monotonic()
    rng = np.random.default_rng(101)
    evaluated = 0
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(3, 7))
        cut = random_canonical_cut(rng, n)
        zero_pairs = {
            (i, j) for i in range(n) for j in range(i + 1, n) if crosses(cut, i, j)
        }
        system = QubitSystem(
            delta=rng.uniform(-1, 1, n),
            h=rng.uniform(-1, 1, n),
            J=random_couplings(rng, n, zero_pairs),
        )
        spec = diagonalize(build_hamiltonian(system))
        try:
            value = cut_w_tilde(spec, system, cut)
            gs = ground_state(spec)
        except DegenerateGroundError:
            continue
        assert is_separable(gs.vector, cut), "ground state must factorize across the cut"
        worst = max(worst, abs(value))
        evaluated += 1
    ok = worst <= 1e-8 and evaluated >= 150
    _report(
        1,
        "witness soundness",
        ok,
        f"{evaluated}/200 nondegenerate, max |w_tilde| = {worst:.2e}",
        started,
        60.0,
    )


def test_criterion_2_pinned_qubit_instance():
    started = time.monotonic()
    system = QubitSystem.from_couplings([1.0, 0.0], [0.3, 5.0], [(0, 1, 0.4)])
    spec = diagonalize(build_hamiltonian(system))
    gs = ground_state(spec)
    cut = Bipartition(1, 2)

    rank = int(np.count_nonzero(schmidt_coefficients(gs.vector, cut) > 1e-7))
    w_tilde = cut_w_tilde(spec, system, cut)
    sz0 = sigma_z_expectation(gs.vector, 0)
    sz1 = sigma_z_expectation(gs.vector, 1)

    ok = (
        rank == 1
        and abs(w_tilde) <= 1e-8
        and abs(sz1) >= 1.0 - 1e-9
        # frozen 4x4 brute-force value: -0.1/sqrt(0.26)
        and abs(sz0 - (-0.19611613513818404)) <= 1e-3
        and abs(abs(sz0) - 0.196) <= 1e-3
    )
    _report(
        2,
        "pinned-qubit soundness",
        ok,
        f"rank={rank}, |w_tilde|={abs(w_tilde):.2e}, sz0={sz0:.6f}, sz1={sz1:.12f}",
        started,
        1.0,
    )


def test_criterion_3_susceptibility_consistency():
    started = time.monotonic()
    rng = np.random.default_rng(103)
    accepted = 0
    worst_fd = 0.0
    worst_sym = 0.0
    min_diag = np.inf
    for _ in range(600):
        if accepted == 100:
            break
        n = int(rng.integers(2, 7))
        system = QubitSystem(
            delta=rng.uniform(-1, 1, n),
            h=rng.uniform(-1, 1, n),
            J=random_couplings(rng, n),
        )
        spec = diagonalize(build_hamiltonian(system))
        gap = float(spec.energies[1] - spec.energies[0])
        # treat only comfortably nondegenerate grounds: the central-difference
        # truncation error grows as (step/gap)^2, so the fixed 1e-4-scale step
        # needs the gap well clear of the stencil width
        if gap < 0.1 * max(1.0, system.coefficient_scale):
            continue
        chi = cross_susceptibility_matrix(spec)
        worst_sym = max(worst_sym, float(np.abs(chi - chi.T).max()))
        min_diag = min(min_diag, float(np.diag(chi).min()))
        step = default_fd_step(system)
        for i in range(n):
            for j in range(n):
                fd = susceptibility_fd(system, i, j, step=step)
                err = abs(chi[i, j] - fd) / max(1.0, abs(chi[i, j]))
                worst_fd = max(worst_fd, err)
        accepted += 1
    ok = (
        accepted == 100
        and worst_fd <= 1e-5
        and worst_sym <= 1e-9
        and min_diag >= 0.0
    )
    _report(
        3,
        "susceptibility consistency",
        ok,
        f"{accepted} instances, max rel fd err {worst_fd:.2e}, "
        f"max asymmetry {worst_sym:.2e}, min chi_ii {min_diag:.2e}",
        started,
        120.0,
    )


def test_criterion_4_single_qubit_analytic():
    started = time.monotonic()
    system = QubitSystem(delta=[1.0], h=[0.0], J=np.zeros((1, 1)))
    spec = diagonalize(build_hamiltonian(system))
    sos = float(cross_susceptibility_matrix(spec)[0, 0])
    fd = susceptibility_fd(system, 0, 0, step=1e-4)
    ok = abs(sos - 2.0) <= 1e-9 and abs(fd - 2.0) <= 1e-6
    _report(
        4,
        "analytic single qubit",
        ok,
        f"sos={sos!r}, fd={fd!r}",
        started,
        1.0,
    )


def test_criterion_5_fm_chain_certification():
    started = time.monotonic()
    n = 4
    base = QubitSystem.from_couplings(
        [0.2] * n, [0.0] * n, [(i, i + 1, -1.0) for i in range(n - 1)]
    )
    direction = QubitSystem(delta=np.zeros(n), h=np.ones(n), J=np.zeros((n, n)))
    config = SweepConfig(
        path=AffinePath(base=base, direction=direction),
        grid=np.linspace(-2.0, 2.0, 201),
    )
    result = run_sweep(config)

    first, last = result.points[0], result.points[-1]
    endpoints_ok = (
        np.all(np.abs(first.sz) >= 0.9)
        and np.all(np.abs(last.sz) >= 0.9)
        and np.all(np.sign(first.sz) == -np.sign(last.sz))
    )

    anticrossings = detect_anticrossings(result)
    anticross_ok = len(anticrossings) == 1 and abs(anticrossings[0][0]) <= 0.02

    report = certify_entanglement_on_path(result)
    certified = {(i, j) for i, j, _, _ in report.certified_pairs}
    adjacent = {(i, i + 1) for i in range(n - 1)}
    pairs_ok = report.path_nondegenerate and adjacent <= certified

    oracle_ok = report.oracle_confirmation is not None
    if oracle_ok:
        spec = diagonalize(
            build_hamiltonian(config.path.at(report.oracle_confirmation))
        )
        oracle_ok = not is_fully_separable(ground_state(spec).vector)

    ok = endpoints_ok and anticross_ok and pairs_ok and oracle_ok
    _report(
        5,
        "FM chain certification",
        ok,
        f"endpoints_ok={endpoints_ok}, anticrossings={anticrossings}, "
        f"certified={sorted(certified)}, oracle_lambda={report.oracle_confirmation}",
        started,
        10.0,
    )


def test_criterion_6_boundedness_and_conventions():
    started = time.monotonic()
    rng = np.random.default_rng(106)
    checked = 0
    disconnected_checked = 0
    for trial in range(500):
        n = int(rng.integers(2, 6))
        disconnect = trial % 3 == 0
        zero_pairs = set()
        cut = None
        if disconnect:
            cut = random_canonical_cut(rng, n)
            zero_pairs = {
                (i, j) for i in range(n) for j in range(i + 1, n) if crosses(cut, i, j)
            }
        system = QubitSystem(
            delta=rng.uniform(-1, 1, n),
            h=rng.uniform(-1, 1, n),
            J=random_couplings(rng, n, zero_pairs),
        )
        spec = diagonalize(build_hamiltonian(system))
        try:
            report = witness_report(spec, system)
        except DegenerateGroundError:
            continue
        assert all(0.0 <= cut_w.w_ab < 1.0 for cut_w in report.cuts)
        assert 0.0 <= report.w_global < 1.0
        if disconnect:
            assert report.w_global == 0.0
            disconnected_checked += 1
        checked += 1

    # degenerate grounds must raise instead of returning values
    degenerate = QubitSystem.from_couplings([0.0, 0.0], [0.0, 0.0], [(0, 1, -1.0)])
    spec = diagonalize(build_hamiltonian(degenerate))
    raised = 0
    for call in (
        lambda: cross_susceptibility_matrix(spec),
        lambda: witness_report(spec, degenerate),
        lambda: ground_response(degenerate),
    ):
        with pytest.raises(DegenerateGroundError):
            call()
        raised += 1

    ok = checked >= 400 and disconnected_checked >= 100 and raised == 3
    _report(
        6,
        "boundedness and conventions",
        ok,
        f"{checked}/500 nondegenerate reports, {disconnected_checked} disconnected, "
        f"{raised} degenerate calls raised",
        started,
        60.0,
    )


def test_criterion_7_scale_check():
    started = time.monotonic()
    rng = np.random.default_rng(107)

    n = 10
    J = np.zeros((n, n))
    for i in range(n - 1):
        J[i, i + 1] = J[i + 1, i] = -1.0
    system = QubitSystem(delta=np.full(n, 0.3), h=rng.uniform(-0.5, 0.5, n), J=J)
    spec = diagonalize(build_hamiltonian(system))
    report = witness_report(spec, system)
    pipeline_elapsed = time.monotonic() - started
    pipeline_ok = pipeline_elapsed <= 120.0 and len(report.cuts) == 2**9 - 1

    big = QubitSystem(
        delta=np.full(12, 0.2), h=rng.uniform(-0.5, 0.5, 12), J=np.zeros((12, 12))
    )
    big_spec = diagonalize(build_hamiltonian(big))
    spectrum_ok = big_spec.dim == 4096 and np.all(np.diff(big_spec.energies) >= 0.0)
    peak_bytes = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    memory_ok = peak_bytes <= 1024**3

    ok = pipeline_ok and spectrum_ok and memory_ok
    _report(
        7,
        "scale check",
        ok,
        f"n=10 pipeline {pipeline_elapsed:.1f}s ({len(report.cuts)} cuts), "
        f"n=12 peak RSS {peak_bytes / 1024**3:.2f} GiB",
        started,
        300.0,
    )
