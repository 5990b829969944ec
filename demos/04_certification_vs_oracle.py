"""Certify entanglement from spin trajectories alone, then cross-check.
========================================================================

The certification argument needs almost no knowledge of the Hamiltonian: if
two coupled qubits both change their average polarization while the ground
state stays nondegenerate along a continuous path, the ground state must be
entangled somewhere on that path. Total variation of each <sz_i(lambda)>
trajectory decides "changes"; any degenerate grid point voids the whole
path.

A certified finding names a grid point, oracle_lambda, at which a certified
pair is coupled and both its qubits tunnel (delta != 0); by Perron-Frobenius
the ground state there is entangled. The brute-force Schmidt oracle then
checks that point independently: its ground state must fail full
separability.
"""

import numpy as np

from witness_lab import (
    AffinePath,
    QubitSystem,
    SweepConfig,
    build_hamiltonian,
    certify_entanglement_on_path,
    diagonalize,
    ground_state,
    is_fully_separable,
    run_sweep,
)


def certify(label, base, direction, grid):
    config = SweepConfig(path=AffinePath(base=base, direction=direction), grid=grid)
    result = run_sweep(config)
    report = certify_entanglement_on_path(result, var_tol=0.5)
    print(f"\n{label}")
    print(f"  path stays nondegenerate: {report.path_nondegenerate}")
    if report.certified_pairs:
        for i, j, var_i, var_j in report.certified_pairs:
            print(f"  pair ({i},{j}) certified: variations {var_i:.3f}, {var_j:.3f}")
        lam = report.oracle_confirmation
        spec = diagonalize(build_hamiltonian(config.path.at(lam)))
        entangled = not is_fully_separable(ground_state(spec).vector)
        print(f"  entangled by structure at lambda = {lam}")
        print(f"  Schmidt oracle finds that ground state non-separable: {entangled}")
        assert entangled
    else:
        print("  nothing certified (witness silent, state may or may not be entangled)")
    return report


n = 4
chain = QubitSystem.from_couplings(
    delta=[0.2] * n, h=[0.0] * n, couplings=[(i, i + 1, -1.0) for i in range(n - 1)]
)
uniform = QubitSystem(delta=np.zeros(n), h=np.ones(n), J=np.zeros((n, n)))
certify(
    "FM chain under uniform bias: all spins swing, every adjacent pair certifies",
    chain,
    uniform,
    np.linspace(-2.0, 2.0, 201),
)

# The escape clause: a coupled pair where one qubit is pinned. Its <sz>
# never moves, so the pair cannot certify, and indeed the ground state is
# exactly separable along the whole path.
pinned = QubitSystem.from_couplings(
    delta=[1.0, 0.0], h=[0.3, 5.0], couplings=[(0, 1, 0.4)]
)
bias_on_pinned = QubitSystem(delta=[0.0, 0.0], h=[0.0, 1.0], J=np.zeros((2, 2)))
certify(
    "pinned-qubit pair: coupling present, but one trajectory is flat",
    pinned,
    bias_on_pinned,
    np.linspace(-1.0, 1.0, 51),
)

# Uncoupled qubits both swing through their own anticrossings, yet without a
# coupling the certification argument says nothing and no pair is eligible.
free = QubitSystem(delta=[0.2, 0.2], h=[0.0, 0.0], J=np.zeros((2, 2)))
certify(
    "uncoupled pair: both spins swing, nothing to certify",
    free,
    QubitSystem(delta=[0.0, 0.0], h=[1.0, 1.0], J=np.zeros((2, 2))),
    np.linspace(-2.0, 2.0, 51),
)
