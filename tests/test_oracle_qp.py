"""Cross-checks the certified reference minimizer against a QP solver.

These tests guard the test oracle itself: the certified dual minimizer in
oracles.py must agree with an exact QP formulation before it is trusted to
judge the production solver. The QP here is the primal problem in
(w, slack), solved by scipy's SLSQP; it shares no code with the oracle.
"""

import numpy as np
import pytest
from scipy.optimize import minimize

from oracles import certified_minimum, eval_objective, problem_from_instance, random_instance


def qp_minimum(problem, C, dim, per_image):
    """min 0.5 |w|^2 + C sum(xi) s.t. w.x >= 1 - xi on positives, w.x <= -1 + xi on negatives, xi >= 0.

    With per_image one slack serves every constraint of an image; otherwise
    each constraint has its own.
    """
    rows, owner = [], []
    for j, (pos, neg) in enumerate(problem):
        for sign, xs in ((1.0, pos), (-1.0, neg)):
            for x in xs:
                owner.append(j if per_image else len(rows))
                rows.append(sign * np.asarray(x, dtype=float))
    num_slack = len(problem) if per_image else len(rows)
    jac = np.zeros((len(rows), dim + num_slack))
    jac[:, :dim] = np.array(rows)
    jac[np.arange(len(rows)), dim + np.array(owner)] = 1.0

    def objective(z):
        return 0.5 * z[:dim] @ z[:dim] + C * z[dim:].sum()

    def gradient(z):
        return np.concatenate([z[:dim], np.full(num_slack, C)])

    res = minimize(
        objective,
        np.concatenate([np.zeros(dim), np.ones(num_slack)]),  # w = 0, xi = 1 is feasible
        jac=gradient,
        method="SLSQP",
        bounds=[(None, None)] * dim + [(0.0, None)] * num_slack,
        constraints={"type": "ineq", "fun": lambda z: jac @ z - 1.0, "jac": lambda z: jac},
        options={"ftol": 1e-12, "maxiter": 1000},
    )
    assert res.success, res.message
    return float(res.fun), np.asarray(res.x[:dim], dtype=float)


@pytest.mark.parametrize("per_image", [True, False])
def test_reference_minimizer_matches_qp(per_image):
    rng = np.random.default_rng(77)
    for _ in range(5):
        instance, k = random_instance(rng)
        problem = problem_from_instance(instance, k)
        dim = len(instance[0][1][0])
        C = float(rng.uniform(0.2, 3.0))
        exact, w_qp = qp_minimum(problem, C, dim, per_image)
        assert eval_objective(w_qp, problem, C, per_image=per_image) >= exact - 1e-6
        _, upper, lower = certified_minimum(problem, C, dim, per_image=per_image)
        assert lower - 1e-6 <= exact <= upper + 1e-6
        assert upper - lower < 1e-6 * upper


def test_qp_agrees_on_analytic_one_dimensional_case():
    problem = [([np.array([2.0])], [np.array([-2.0])])]
    exact, w = qp_minimum(problem, 1.0, 1, per_image=True)
    assert abs(w[0] - 0.5) < 1e-6
    assert abs(exact - 0.125) < 1e-8
    w, upper, lower = certified_minimum(problem, 1.0, 1)
    assert abs(w[0] - 0.5) < 1e-6
    assert lower - 1e-12 <= 0.125 <= upper + 1e-12
