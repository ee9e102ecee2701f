"""The bits of every ``verify`` row: a precision gate next to ``verify``'s user-facing tolerance.

``verify`` passes a row at 1e-10 by default, about 4.5e5 machine epsilons, so a kernel that loses
several digits still passes it.  This test holds each row of ``identity_checks`` at N = 2-8 and
seeds 0 and 7 to a budget in units of eps: 0 for the rows that are exact, and otherwise the
row's worst value over that sweep, rounded up to a whole eps.  A budget moves only with a change
that names its cause.
"""

import numpy as np
import pytest

from sun_gates import cli
from sun_gates.invariant_channels import Channel

EPS = np.finfo(float).eps

#: Each row's budget in units of eps; 0 means the row must be exactly 0.0
BUDGETS = {
    "generator_hermiticity": 0,
    "generator_tracelessness": 1,
    "generator_orthonormality": 1,
    "completeness_identity": 1,
    "projector_idempotence[s]": 0,
    "projector_orthogonality[s]": 0,
    "projector_completeness[s]": 0,
    "projector_traces[s]": 0,
    "projector_generator_form[s]": 1,
    "gate_unitarity[s]": 0,
    "gate_involution[s]": 0,
    "gate_hermiticity[s]": 0,
    "swap_action": 0,
    "projector_idempotence[t]": 1,
    "projector_orthogonality[t]": 1,
    "projector_completeness[t]": 0,
    "projector_traces[t]": 1,
    "projector_generator_form[t]": 1,
    "gate_unitarity[t]": 1,
    "gate_involution[t]": 1,
    "gate_hermiticity[t]": 0,
    "u_spectrum": 5,
    "u_exponential_form": 3,
    "crossing_row_identity": 0,
    "crossing_row_swap": 0,
    "crossing_coefficient_round_trip": 2,
    "crossing_operator_consistency": 4,
    "decompose_round_trip": 4,
}


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("n", range(2, 9))
def test_every_verify_row_stays_within_its_budget_in_eps(n, seed):
    rows = cli.identity_checks(n, [Channel.S, Channel.T], seed)
    # a new row brings its budget, and a deleted row takes its budget with it
    assert [row.name for row in rows] == list(BUDGETS)
    over = [f"{row.name} at N={n}, seed {seed}: {row.max_deviation / EPS:.3f} eps > {BUDGETS[row.name]} eps"
            for row in rows if not row.max_deviation <= BUDGETS[row.name] * EPS]
    assert not over, "\n".join(over)
