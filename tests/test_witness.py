import json
import sys
import warnings

import numpy as np
import pytest
from conftest import (
    brute_chi_sos,
    brute_ground,
    canonical,
    complement,
    crosses,
    is_canonical,
    lambda_susceptibilities,
    random_couplings,
)

import witness_lab.krylov as krylov
import witness_lab.spectrum as spectrum

from witness_lab import (
    AffinePath,
    Bipartition,
    DegenerateGroundError,
    QubitSystem,
    build_hamiltonian,
    crossing_table,
    diagonalize,
    ground_response,
    ground_state,
    is_separable,
    solve_witness_report,
    witness_ab,
    witness_lambda,
    witness_report,
)
from witness_lab.cli import main
from witness_lab.witness import enumerate_bipartitions


def spectrum_of(system):
    return diagonalize(build_hamiltonian(system))


def report_of(system):
    return witness_report(spectrum_of(system), system)


def cut_in(report, cut):
    """The report's row for ``cut``, which may be given in either orientation."""
    mask = canonical(cut).mask
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
        assert all(is_canonical(p) for p in parts)
        full = (1 << 5) - 1
        assert not any((full ^ p.mask) in set(masks) for p in parts)

    def test_members_and_complement(self):
        part = Bipartition(mask=0b101, n=3)
        assert part.members == (0, 2)
        assert part.complement_members == (1,)
        assert complement(part).members == (1,)
        assert canonical(complement(part)).mask == 0b101

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
                other = complement(cut)
                assert not is_canonical(other)
                assert list(row) == [crosses(other, a, b) for a, b in zip(i, j)]
                assert list(row) == [crosses(cut, a, b) for a, b in zip(i, j)]

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
                if crosses(cut, i, j)
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

    def test_matches_finite_difference_oracle(self):
        rng = np.random.default_rng(41)
        for n in range(2, 7):
            system = QubitSystem(
                delta=rng.uniform(0.3, 1.0, n),
                h=rng.uniform(-1, 1, n),
                J=random_couplings(rng, n),
            )
            direction = QubitSystem(
                delta=rng.uniform(-1, 1, n),
                h=rng.uniform(-1, 1, n),
                J=random_couplings(rng, n),
            )
            path = AffinePath(base=system, direction=direction)
            chi = lambda_susceptibilities(path, -0.2)
            moved = path.at(-0.2)
            i, j = np.triu_indices(n, 1)
            fd = float(np.abs(moved.J[i, j] * chi[i] * chi[j]).sum())
            assert abs(witness_lambda(path, -0.2) - fd) <= 1e-5 * max(1.0, fd)

    def test_scales_with_the_square_of_the_direction(self):
        # a 1e150 bias direction: w_lambda is about 4e304
        path = self.uniform_bias_path(fm_pair())
        unit = witness_lambda(path, 0.0)
        big = AffinePath(
            base=path.base,
            direction=QubitSystem(delta=[0.0, 0.0], h=[1e150, 1e150], J=np.zeros((2, 2))),
        )
        assert abs(witness_lambda(big, 0.0) - 1e300 * unit) <= 1e-12 * 1e300 * unit

    @pytest.mark.parametrize("bias", [1e200, 1e308])
    def test_overflow_raises_value_error(self, bias):
        path = AffinePath(
            base=fm_pair(),
            direction=QubitSystem(delta=[0.0, 0.0], h=[bias, bias], J=np.zeros((2, 2))),
        )
        with pytest.raises(ValueError, match="overflows"):
            witness_lambda(path, 0.0)

    def test_degenerate_stencil_raises(self):
        # qubit 1 has delta = h = 0, so the spectrum is doubly degenerate at
        # lambda0, where the path response is taken
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
                    if crosses(cut, i, j)
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
                (i, j) for i in range(n) for j in range(i + 1, n) if crosses(cut, i, j)
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


def lambda_row_document(system, direction, lambda0):
    def block(s):
        return {
            "delta": [float(v) for v in s.delta],
            "h": [float(v) for v in s.h],
            "couplings": [
                [i, j, float(s.J[i, j])]
                for i in range(s.n)
                for j in range(i + 1, s.n)
                if s.J[i, j] != 0.0
            ],
        }

    return {
        "system": {"n": system.n, **block(system)},
        "witness": {"lambda_direction": block(direction), "lambda0": lambda0},
    }


def count_calls(monkeypatch, module, name):
    """Count calls of ``module.name`` wherever a ``witness_lab`` module
    imported it; returns a one-element list holding the count."""
    original = getattr(module, name)
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    for mod in list(sys.modules.values()):
        if (mod.__name__ or "").startswith("witness_lab") and getattr(
            mod, name, None
        ) is original:
            monkeypatch.setattr(mod, name, counted)
    return calls


def random_path(n, seed):
    rng = np.random.default_rng(seed)
    base = QubitSystem(
        delta=rng.uniform(0.5, 1.5, n),
        h=rng.uniform(-0.3, 0.3, n),
        J=random_couplings(rng, n),
    )
    direction = QubitSystem(
        delta=rng.uniform(-1, 1, n), h=rng.uniform(-1, 1, n), J=random_couplings(rng, n)
    )
    return AffinePath(base=base, direction=direction)


class TestOneReportBody:
    """``witness_report`` on a dense spectrum and ``solve_witness_report``
    run one body: below the Krylov dimension they agree bit for bit, and a
    degenerate ground level at ``lambda0`` raises on both."""

    @pytest.mark.parametrize("lambda0", [0.0, 0.25])
    @pytest.mark.parametrize("n", range(2, 10))
    def test_reports_are_bitwise_equal(self, n, lambda0):
        path = random_path(n, 40 + n)
        system = path.base
        given = witness_report(spectrum_of(system), system, path=path, lambda0=lambda0)
        solved = solve_witness_report(system, path=path, lambda0=lambda0)
        assert given.cuts == solved.cuts
        assert given.w_lambda is not None
        assert given.w_lambda == solved.w_lambda
        assert given.w_global == solved.w_global

    @pytest.mark.parametrize("lambda0", [0.25, 0.5])
    def test_degenerate_lambda_point_raises_on_both(self, lambda0):
        # The bias on qubit 1 splits its levels at the system, and at lambda0
        # the direction cancels it: qubit 1 has delta = h = 0 there, so the
        # ground level of the uncoupled pair is doubly degenerate.
        system = QubitSystem(delta=[1.0, 0.0], h=[0.0, 1.0], J=np.zeros((2, 2)))
        direction = QubitSystem(
            delta=[0.0, 0.0], h=[0.0, -1.0 / lambda0], J=np.zeros((2, 2))
        )
        path = AffinePath(base=system, direction=direction)
        assert path.at(lambda0).h[1] == 0.0
        spec = spectrum_of(system)
        with pytest.raises(DegenerateGroundError):
            witness_report(spec, system, path=path, lambda0=lambda0)
        with pytest.raises(DegenerateGroundError):
            solve_witness_report(system, path=path, lambda0=lambda0)
        # without the lambda row, the system itself has a unique ground state
        assert witness_report(spec, system).w_lambda is None
        assert solve_witness_report(system).w_lambda is None


class TestOneSolvePerWitnessOp:
    """A ``witness`` op whose lambda row sits at the system itself solves
    the ground state once; any other ``lambda0`` takes a second solve."""

    def run(self, tmp_path, capsys, doc, *flags):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(doc))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["witness", "--config", str(cfg), *flags])
        out, err = capsys.readouterr()
        return code, out, err

    @pytest.mark.parametrize(
        "n, lambda0, diagonalizations, lanczos_runs",
        [(8, 0.0, 1, 0), (8, 0.25, 2, 0), (10, 0.0, 0, 2), (10, 0.25, 0, 4)],
    )
    def test_solve_counts(
        self, monkeypatch, tmp_path, capsys, n, lambda0, diagonalizations, lanczos_runs
    ):
        path = random_path(n, 70 + n)
        dense = count_calls(monkeypatch, spectrum, "diagonalize")
        lanczos = count_calls(monkeypatch, krylov, "_lanczos")
        doc = lambda_row_document(path.base, path.direction, lambda0)
        code, out, _ = self.run(tmp_path, capsys, doc)
        assert code == 0 and "\nlambda,,," in out
        assert (dense[0], lanczos[0]) == (diagonalizations, lanczos_runs)

    def test_lambda_row_is_bitwise_witness_lambda(self, tmp_path, capsys):
        for n in range(2, 11):
            path = random_path(n, 90 + n)
            # a signed zero in the system: path.at(0.0) turns it into +0.0,
            # which must still share the solve and change no digit
            h = np.array(path.base.h)
            h[0] = -0.0
            base = QubitSystem(delta=path.base.delta, h=h, J=path.base.J)
            path = AffinePath(base=base, direction=path.direction)
            # lambda0 = 0.25 leaves the system: a second solve
            for lambda0, flags, deg_tol in (
                (0.0, (), None),
                (0.0, ("--deg-tol", "1e-6"), 1e-6),
                (0.25, (), None),
            ):
                doc = lambda_row_document(base, path.direction, lambda0)
                code, out, _ = self.run(tmp_path, capsys, doc, *flags)
                assert code == 0
                row = next(line for line in out.splitlines() if line.startswith("lambda"))
                assert row == f"lambda,,,{witness_lambda(path, lambda0, deg_tol)!r}"

    @pytest.mark.parametrize("lambda0", [0.0, -0.0, 1e-320])
    def test_dense_report_takes_the_row_from_its_spectrum(self, monkeypatch, lambda0):
        # 1e-320 * 1 vanishes next to every coefficient: the point is the system
        path = random_path(5, 5)
        spec = spectrum_of(path.base)
        expected = witness_lambda(path, lambda0)
        dense = count_calls(monkeypatch, spectrum, "diagonalize")
        report = witness_report(spec, path.base, path=path, lambda0=lambda0)
        assert dense[0] == 0
        assert report.w_lambda == expected

    @pytest.mark.parametrize("lambda0", [0.0, 1e308])
    @pytest.mark.parametrize("n", [4, 10])
    def test_degenerate_ground_exits_3(self, monkeypatch, tmp_path, capsys, n, lambda0):
        # Zero-bias ferromagnetic chain: the tunnel splitting is far below
        # the degeneracy tolerance. At lambda0 = 1e308 the path point itself
        # overflows (exit 2 on its own), but the report's solve fails first.
        J = np.zeros((n, n))
        for i in range(n - 1):
            J[i, i + 1] = J[i + 1, i] = -1.0
        system = QubitSystem(delta=np.full(n, 1e-3), h=np.zeros(n), J=J)
        direction = QubitSystem(
            delta=np.zeros(n), h=np.full(n, 10.0), J=np.zeros((n, n))
        )
        dense = count_calls(monkeypatch, spectrum, "diagonalize")
        lanczos = count_calls(monkeypatch, krylov, "_lanczos")
        code, out, err = self.run(
            tmp_path, capsys, lambda_row_document(system, direction, lambda0)
        )
        assert code == 3 and out == "" and err.startswith("DegenerateGround: ")
        assert (dense[0], lanczos[0]) == ((1, 0) if n < 10 else (0, 2))

    @pytest.mark.parametrize("n", [2, 8, 10])
    def test_overflowing_response_exits_2(self, monkeypatch, tmp_path, capsys, n):
        path = random_path(n, n)
        direction = QubitSystem(
            delta=np.zeros(n), h=np.full(n, 1e308), J=np.zeros((n, n))
        )
        dense = count_calls(monkeypatch, spectrum, "diagonalize")
        lanczos = count_calls(monkeypatch, krylov, "_lanczos")
        code, out, err = self.run(
            tmp_path, capsys, lambda_row_document(path.base, direction, 0.0)
        )
        assert code == 2 and out == ""
        assert err.startswith("config error: ") and "overflows" in err
        assert "Warning" not in err
        assert (dense[0], lanczos[0]) == ((1, 0) if n < 10 else (0, 2))


def classical_star(n, seed=0):
    """Qubit 0 tunnels (delta 0.7); every other qubit is classical (delta 0)
    and coupled to qubit 0 and along a chain. Each sz_j with j > 0 is
    conserved, so the ground state is a product state."""
    rng = np.random.default_rng(seed)
    couplings = [(0, j, float(rng.uniform(0.5, 1.5))) for j in range(1, n)]
    couplings += [(j, j + 1, -1.0) for j in range(1, n - 1)]
    h = [0.3] + list(rng.uniform(0.1, 0.4, n - 1))
    return QubitSystem.from_couplings([0.7] + [0.0] * (n - 1), h, couplings)


class TestClassicalQubits:
    @pytest.mark.parametrize("n", [2, 3, 5, 10])
    def test_product_ground_state_gives_exact_zeros(self, n):
        # n = 10 runs the Krylov route, the others the dense one.
        system = classical_star(n, seed=n)
        direction = QubitSystem(delta=np.zeros(n), h=np.ones(n), J=np.zeros((n, n)))
        for lambda0 in (0.0, 0.1):  # the shared solve and a second one
            path = AffinePath(base=system, direction=direction)
            report = solve_witness_report(system, path=path, lambda0=lambda0)
            assert [cut.w_tilde for cut in report.cuts] == [0.0] * len(report.cuts)
            assert report.w_global == 0.0
            assert report.w_lambda == 0.0
            assert witness_lambda(path, lambda0) == 0.0

    def test_n2_example_was_rounding_noise(self):
        # delta = (0.7, 0): chi_01 comes out of the solver near 1e-19.
        system = QubitSystem.from_couplings([0.7, 0.0], [0.3, 0.2], [(0, 1, 1.0)])
        _, chi = ground_response(system)
        assert chi[0, 1] != 0.0 and abs(chi[0, 1]) < 1e-15
        report = witness_report(spectrum_of(system), system)
        assert report.cuts[0].w_tilde == 0.0 and report.w_global == 0.0

    def test_quantum_pairs_keep_their_values(self):
        # Qubit 2 is classical; the pair (0, 1) is untouched by the zeros.
        system = QubitSystem.from_couplings(
            [0.5, 0.6, 0.0], [0.1, -0.2, 0.3], [(0, 1, -1.0), (1, 2, 0.7)]
        )
        _, chi = ground_response(system)
        report = report_of(system)
        cut = cut_in(report, Bipartition(mask=0b001, n=3))  # {0} | {1, 2}
        assert cut.w_tilde == -1.0 * chi[0, 1]
        assert cut_in(report, Bipartition(mask=0b011, n=3)).w_tilde == 0.0  # {0, 1} | {2}
