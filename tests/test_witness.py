import numpy as np
import pytest
from conftest import brute_chi_sos, brute_ground, random_couplings

from witness_lab import (
    AffinePath,
    Bipartition,
    DegenerateGroundError,
    QubitSystem,
    build_hamiltonian,
    crossing_table,
    diagonalize,
    enumerate_bipartitions,
    ground_response,
    ground_state,
    is_separable,
    witness_ab,
    witness_lambda,
    witness_report,
)


def spectrum_of(system):
    return diagonalize(build_hamiltonian(system))


def report_of(system):
    return witness_report(spectrum_of(system), system)


def cut_in(report, cut):
    """The report's row for ``cut``, which may be given in either orientation."""
    mask = cut.canonical().mask
    return next(row for row in report.cuts if row.partition.mask == mask)


def fm_pair():
    return QubitSystem.from_couplings([0.2, 0.2], [0.0, 0.0], [(0, 1, -1.0)])


def pinned_pair():
    # qubit 1 has no tunneling and a large bias, so the ground state is an
    # exact product with qubit 1 locked to sz = +1 despite the coupling
    return QubitSystem.from_couplings([1.0, 0.0], [0.3, 5.0], [(0, 1, 0.4)])


def fm_triangle():
    return QubitSystem.from_couplings(
        [0.2, 0.2, 0.2], [0.0, 0.0, 0.0], [(0, 1, -1.0), (0, 2, -1.0), (1, 2, -1.0)]
    )


class TestBipartition:
    def test_counts(self):
        assert [p.mask for p in enumerate_bipartitions(2)] == [1]
        assert [p.mask for p in enumerate_bipartitions(3)] == [1, 3, 5]
        assert len(enumerate_bipartitions(4)) == 7

    def test_canonical_sorted_no_complements(self):
        parts = enumerate_bipartitions(5)
        assert len(parts) == 2**4 - 1
        masks = [p.mask for p in parts]
        assert masks == sorted(masks)
        assert all(p.is_canonical for p in parts)
        full = (1 << 5) - 1
        assert not any((full ^ p.mask) in set(masks) for p in parts)

    def test_members_and_complement(self):
        part = Bipartition(mask=0b101, n=3)
        assert part.members == (0, 2)
        assert part.complement_members == (1,)
        assert part.complement().members == (1,)
        assert part.complement().canonical().mask == 0b101

    def test_rejects_empty_and_full(self):
        with pytest.raises(ValueError):
            Bipartition(mask=0, n=3)
        with pytest.raises(ValueError):
            Bipartition(mask=0b111, n=3)
        with pytest.raises(ValueError):
            enumerate_bipartitions(1)


class TestWitnessAb:
    def test_zero_numerator(self):
        assert witness_ab(0.0, 3) == 0.0

    def test_unit_case(self):
        assert witness_ab(1.0, 1) == 0.5

    def test_disconnected_cut_convention(self):
        assert witness_ab(123.4, 0) == 0.0
        assert witness_ab(-7.0, 0) == 0.0

    def test_bounded_and_sign_blind(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            w = float(rng.normal(scale=10.0))
            n_ab = int(rng.integers(0, 6))
            value = witness_ab(w, n_ab)
            assert 0.0 <= value < 1.0
            assert value == witness_ab(-w, n_ab)

    def test_rejects_negative_count(self):
        with pytest.raises(ValueError):
            witness_ab(1.0, -1)


class TestWitnessTilde:
    def test_uncoupled_cut_is_exact_zero(self):
        system = QubitSystem(delta=[1.0, 0.7], h=[0.2, -0.4], J=np.zeros((2, 2)))
        assert report_of(system).cuts[0].w_tilde == 0.0

    def test_pinned_pair_silent_despite_coupling(self):
        system = pinned_pair()
        spec = spectrum_of(system)
        cut = witness_report(spec, system).cuts[0]
        assert cut.n_ab == 1
        gs_vec = spec.states[:, 0]
        assert is_separable(gs_vec, cut.partition, tol=1e-7)
        assert abs(cut.w_tilde) <= 1e-8

    def test_fm_pair_loud_and_matches_brute_force(self):
        system = fm_pair()
        value = report_of(system).cuts[0].w_tilde
        assert abs(value) > 0.1
        energies, vectors = brute_ground(system.delta, system.h, system.J)
        expected = system.J[0, 1] * brute_chi_sos(energies, vectors, 0, 1, 2)
        assert abs(value - expected) <= 1e-9 * max(1.0, abs(expected))

    def test_pinned_family_silent_despite_couplings(self):
        # a qubit without tunneling freezes into a sigma_z eigenstate, so the
        # ground state factorizes across its single-vs-rest cut even though
        # couplings cross it; the witness must stay silent on exactly that cut
        rng = np.random.default_rng(23)
        done = 0
        for _ in range(60):
            if done == 20:
                break
            n = int(rng.integers(2, 5))
            k = int(rng.integers(0, n))
            delta = rng.uniform(0.3, 1.0, n)
            delta[k] = 0.0
            h = rng.uniform(-1, 1, n)
            h[k] = float(rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0]))
            system = QubitSystem(delta=delta, h=h, J=random_couplings(rng, n))
            spec = spectrum_of(system)
            cut = Bipartition(1 << k, n)
            try:
                row = cut_in(witness_report(spec, system), cut)
                gs = ground_state(spec)
            except DegenerateGroundError:
                continue
            assert row.n_ab == n - 1
            assert is_separable(gs.vector, cut)
            assert abs(row.w_tilde) <= 1e-8
            done += 1
        assert done == 20

    def test_complement_symmetry(self):
        # a cut and its complement have the same crossing pairs, so the
        # table's row for a canonical cut serves both orientations
        for n in range(2, 7):
            i, j = np.triu_indices(n, 1)
            table = crossing_table(n)
            for row, cut in zip(table, enumerate_bipartitions(n), strict=True):
                other = cut.complement()
                assert not other.is_canonical
                assert list(row) == [other.crosses(a, b) for a, b in zip(i, j)]
                assert list(row) == [cut.crosses(a, b) for a, b in zip(i, j)]

    def test_degenerate_ground_raises(self):
        system = QubitSystem.from_couplings([0.0, 0.0], [0.0, 0.0], [(0, 1, -1.0)])
        with pytest.raises(DegenerateGroundError):
            report_of(system)

    def test_degenerate_ground_raises_even_without_couplings(self):
        # an uncoupled cut must not mask a degenerate ground
        system = QubitSystem(delta=[0.0, 1.0], h=[0.0, 0.0], J=np.zeros((2, 2)))
        with pytest.raises(DegenerateGroundError):
            report_of(system)
        with pytest.raises(DegenerateGroundError):
            ground_response(system)


class TestWitnessGlobal:
    def test_disconnected_graph_gives_exact_zero(self):
        # couple 0-1 and leave qubit 2 isolated: the {0,1}|{2} cut is silent
        system = QubitSystem.from_couplings(
            [0.5, 0.5, 0.5], [0.1, -0.2, 0.3], [(0, 1, -0.8)]
        )
        assert report_of(system).w_global == 0.0

    def test_pinned_pair_near_zero(self):
        assert abs(report_of(pinned_pair()).w_global) <= 1e-8

    def test_fm_triangle_strictly_inside_unit_interval(self):
        system = fm_triangle()
        value = report_of(system).w_global
        assert 0.0 < value < 1.0
        # brute-force evaluation of all three cuts of the 8x8 system
        energies, vectors = brute_ground(system.delta, system.h, system.J)
        logs = []
        for cut in enumerate_bipartitions(3):
            tilde = sum(
                system.J[i, j] * brute_chi_sos(energies, vectors, i, j, 3)
                for i in range(3)
                for j in range(i + 1, 3)
                if cut.crosses(i, j)
            )
            logs.append(np.log(abs(tilde) / 2.0))
        g = float(np.exp(np.mean(logs)))
        assert abs(value - g / (1.0 + g)) <= 1e-9

    def test_requires_two_qubits(self):
        system = QubitSystem(delta=[1.0], h=[0.0], J=np.zeros((1, 1)))
        with pytest.raises(ValueError, match="require 2 <= n"):
            report_of(system)


class TestWitnessLambda:
    def uniform_bias_path(self, system):
        n = system.n
        return AffinePath(
            base=system,
            direction=QubitSystem(delta=np.zeros(n), h=np.ones(n), J=np.zeros((n, n))),
        )

    def test_uncoupled_system_gives_zero(self):
        system = QubitSystem(delta=[1.0, 0.7], h=[0.1, 0.2], J=np.zeros((2, 2)))
        assert witness_lambda(self.uniform_bias_path(system)) == 0.0

    def test_pinned_pair_silent(self):
        system = pinned_pair()
        path = AffinePath(
            base=system,
            direction=QubitSystem(delta=[0.0, 0.0], h=[1.0, 0.0], J=np.zeros((2, 2))),
        )
        assert abs(witness_lambda(path, 0.0)) <= 1e-8

    def test_fm_pair_certifies_at_anticrossing(self):
        value = witness_lambda(self.uniform_bias_path(fm_pair()), 0.0)
        assert value > 0.1

    def test_degenerate_stencil_raises(self):
        # qubit 1 has delta = h = 0, so the spectrum stays doubly degenerate
        # at every stencil point of a bias-on-qubit-0 path
        system = QubitSystem(delta=[1.0, 0.0], h=[0.0, 0.0], J=np.zeros((2, 2)))
        path = AffinePath(
            base=system,
            direction=QubitSystem(delta=[0.0, 0.0], h=[1.0, 0.0], J=np.zeros((2, 2))),
        )
        with pytest.raises(DegenerateGroundError):
            witness_lambda(path, 0.0)


class TestWitnessReport:
    def test_structure_and_consistency(self):
        system = fm_triangle()
        spec = spectrum_of(system)
        report = witness_report(spec, system)
        assert len(report.cuts) == 2**2 - 1
        masks = [c.partition.mask for c in report.cuts]
        assert masks == sorted(masks)
        for cut in report.cuts:
            assert 0.0 <= cut.w_ab < 1.0
            assert cut.w_ab == witness_ab(cut.w_tilde, cut.n_ab)
        assert report.w_lambda is None
        logs = [np.log(abs(cut.w_tilde) / cut.n_ab) for cut in report.cuts]
        g = float(np.exp(np.mean(logs)))
        assert abs(report.w_global - g / (1.0 + g)) <= 1e-12

    def test_report_with_path_populates_lambda(self):
        system = fm_pair()
        spec = spectrum_of(system)
        path = AffinePath(
            base=system,
            direction=QubitSystem(delta=[0.0, 0.0], h=[1.0, 1.0], J=np.zeros((2, 2))),
        )
        report = witness_report(spec, system, path=path, lambda0=0.0)
        assert report.w_lambda is not None and report.w_lambda > 0.1

    def test_monotone_consistency_on_random_instances(self):
        rng = np.random.default_rng(6)
        done = 0
        for _ in range(60):
            if done == 25:
                break
            n = int(rng.integers(2, 5))
            zero_pairs = set()
            if rng.random() < 0.5:
                # random disconnected cut (canonical proper mask)
                cut = Bipartition((int(rng.integers(0, (1 << (n - 1)) - 1)) << 1) | 1, n)
                zero_pairs = {
                    (i, j)
                    for i in range(n)
                    for j in range(i + 1, n)
                    if cut.crosses(i, j)
                }
            system = QubitSystem(
                delta=rng.uniform(-1, 1, n),
                h=rng.uniform(-1, 1, n),
                J=random_couplings(rng, n, zero_pairs),
            )
            try:
                report = witness_report(spectrum_of(system), system)
            except DegenerateGroundError:
                continue
            for cut in report.cuts:
                assert (cut.w_ab == 0.0) == (cut.w_tilde == 0.0 or cut.n_ab == 0)
            if report.w_global > 0.0:
                assert all(c.w_tilde != 0.0 and c.n_ab > 0 for c in report.cuts)
            if any(c.w_tilde == 0.0 or c.n_ab == 0 for c in report.cuts):
                assert report.w_global == 0.0
            done += 1
        assert done == 25

    def test_separable_ground_keeps_witness_silent(self):
        # soundness: zero the couplings across one cut, so the ground state
        # factorizes there; the witness on that cut must stay at zero
        rng = np.random.default_rng(7)
        done = 0
        for _ in range(80):
            if done == 25:
                break
            n = int(rng.integers(3, 6))
            cut = Bipartition((int(rng.integers(0, (1 << (n - 1)) - 1)) << 1) | 1, n)
            zero_pairs = {
                (i, j) for i in range(n) for j in range(i + 1, n) if cut.crosses(i, j)
            }
            system = QubitSystem(
                delta=rng.uniform(-1, 1, n),
                h=rng.uniform(-1, 1, n),
                J=random_couplings(rng, n, zero_pairs),
            )
            spec = spectrum_of(system)
            try:
                value = cut_in(witness_report(spec, system), cut).w_tilde
                gs_vec = spec.states[:, 0]
                if spec.energies[1] - spec.energies[0] <= 1e-6:
                    continue
            except DegenerateGroundError:
                continue
            assert is_separable(gs_vec, cut)
            assert abs(value) <= 1e-8
            done += 1
        assert done == 25
