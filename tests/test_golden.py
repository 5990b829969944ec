"""Every command's stdout, stderr and exit code on small fixed configs,
byte for byte against the files checked in under ``tests/golden``.

The expected files hold the output of the numpy build they were generated
with; the last digits of a float may differ under another BLAS or LAPACK.
After a deliberate output change, regenerate them with

    PYTHONPATH=src python tests/test_golden.py

and review the diff.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from witness_lab import build_hamiltonian, diagonalize, witness_report
from witness_lab.cli import load_config, main

GOLDEN = Path(__file__).resolve().parent / "golden"

# case -> (command and flags, config file under tests/golden)
CASES = {
    "spectrum_ground": (["spectrum", "--ground"], "triangle.json"),
    "spectrum_ground_degenerate": (["spectrum", "--ground"], "classical_pair.json"),
    "witness_lambda_shared": (["witness"], "witness_lambda_shared.json"),
    "witness_lambda_second": (["witness"], "witness_lambda_second.json"),
    "witness_krylov_n10": (["witness"], "krylov_chain_n10.json"),
    # the lambda row on the Krylov route, from the report's own solve
    "witness_krylov_lambda_n10": (["witness"], "krylov_chain_n10_lambda.json"),
    # fd_step left with the finite-difference lambda row: an unknown key
    "witness_fd_step_rejected": (["witness"], "witness_fd_step.json"),
    "sweep_degenerate_end": (["sweep"], "degenerate_end_sweep.json"),
    "sweep_chain_n6": (["sweep"], "chain_n6_sweep.json"),
    "certify_fm_pair": (["certify"], "fm_pair.json"),
    "certify_uncoupled_pair": (["certify"], "uncoupled_pair.json"),
    "certify_classical_pair": (["certify"], "classical_pair.json"),
    # lambda = 0, where the classical sectors cross, lies between grid points
    "certify_classical_pair_off_grid": (["certify"], "classical_pair_off_grid.json"),
    "certify_classical_chain_n3": (["certify"], "classical_chain_n3.json"),
    # 2001 points at n = 6: every chunk but a segment's first is proven
    "certify_chain_n6_proof": (["certify"], "chain_n6_certify.json"),
    # qubit 1 is classical, so the ground state is a product: exact zeros
    "witness_classical_qubit": (["witness"], "classical_qubit_pair.json"),
    # --levels belongs to the commands that print energies
    "witness_levels_rejected": (["witness", "--levels", "1"], "triangle.json"),
    "certify_levels_rejected": (["certify", "--levels", "2"], "fm_pair.json"),
    # certify records no energies, so sweep.track_levels is not used ...
    "certify_track_levels_ignored": (["certify"], "fm_pair_track_levels_1.json"),
    # ... while sweep, which prints them, still needs at least two
    "sweep_track_levels_rejected": (["sweep"], "fm_pair_track_levels_1.json"),
    # schmidt_tol left with the Schmidt search of certify: an unknown key
    "certify_schmidt_tol_rejected": (["certify"], "fm_pair_schmidt_tol.json"),
    # --var-tol belongs to certify, the one command that reads it
    "witness_var_tol_rejected": (["witness", "--var-tol", "1"], "triangle.json"),
}


def run_case(case: str) -> tuple[int, str, str]:
    argv, config = CASES[case]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv + ["--config", str(GOLDEN / config)])
        except SystemExit as exc:  # argparse refuses the command line
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def expected_exit_codes() -> dict:
    return json.loads((GOLDEN / "exit_codes.json").read_text())


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_matches_golden_files(case):
    code, out, err = run_case(case)
    assert code == expected_exit_codes()[case]
    assert out == (GOLDEN / f"{case}.stdout").read_text()
    assert err == (GOLDEN / f"{case}.stderr").read_text()


def test_cases_cover_every_exit_code_of_certify():
    codes = expected_exit_codes()
    assert {codes[c] for c in CASES if c.startswith("certify")} == {0, 1, 2, 3}


@pytest.mark.parametrize("case", ["witness_krylov_n10", "witness_krylov_lambda_n10"])
def test_krylov_golden_values_match_dense_route(case):
    # The Krylov cases are regenerated whenever the solver's rounding moves;
    # this checks the checked-in numbers against an independent route.
    config = load_config(str(GOLDEN / CASES[case][1]))
    system = config.system
    dense = witness_report(
        diagonalize(build_hamiltonian(system)),
        system,
        path=config.witness_path,
        lambda0=config.witness_lambda0,
    )
    want = {
        f"0x{cut.partition.mask:x}": (cut.n_ab, cut.w_tilde, cut.w_ab)
        for cut in dense.cuts
    }
    if dense.w_lambda is not None:
        want["lambda"] = ("", "", dense.w_lambda)
    want["global"] = ("", "", dense.w_global)
    header, *rows = (GOLDEN / f"{case}.stdout").read_text().splitlines()
    assert header == "mask_hex,n_ab,w_tilde,w_ab"
    assert [row.split(",")[0] for row in rows] == list(want)
    for row in rows:
        label, *fields = row.split(",")
        for got, expected in zip(fields, want[label], strict=True):
            if isinstance(expected, float):
                assert abs(float(got) - expected) <= 1e-10 * max(1.0, abs(expected))
            else:
                assert got == str(expected)


def regenerate() -> None:
    codes = {}
    for case in sorted(CASES):
        codes[case], out, err = run_case(case)
        (GOLDEN / f"{case}.stdout").write_text(out)
        (GOLDEN / f"{case}.stderr").write_text(err)
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=2) + "\n")


if __name__ == "__main__":
    sys.exit(regenerate())
