"""Time-indexed ILP for the exact solver tier's value (scipy/HiGHS).

:func:`minimum_completion_ilp` obtains the optimal completion *value* from
a mixed-integer program solved by HiGHS (``scipy.optimize.milp``).  It is
not a solve path: the exact tier always takes its value and plan from the
pure-python branch-and-bound (:func:`repro.solvers.solve_broadcast`), which
is faster at every instance size measured.  The ILP is an independent
voter beside the brute-force oracle in the tests and the comparator of
``benchmarks/test_solvers.py``.  scipy is imported only when a MILP is
built, never by ``import repro``, and is never installed on demand.

Formulation (decision slots ``s_0 < … < s_{K-1}`` are the slots in
``[start_time, horizon]`` with at least one awake node):

* ``x[u,k] ∈ {0,1}`` — node ``u`` (awake at ``s_k``) transmits at ``s_k``;
* ``c[v,k] ∈ [0,1]`` — ``v`` is covered by the end of ``s_k`` (continuous:
  with integral ``x`` the coverage-honesty constraint forces ``c`` at or
  below the true coverage indicator, and the objective pushes it up to it);
* ``z[k] ∈ {0,1}`` — every node is covered by the end of ``s_k``.

Constraints: a transmitter must hold the message beforehand
(``x[u,k] ≤ c[u,k-1]``); coverage is monotone and honest
(``c[v,k] ≤ c[v,k-1] + Σ_{u∈N(v)} x[u,k]``); two transmitters sharing a
*still uncovered* common neighbour ``v`` conflict
(``x[u,k] + x[w,k] ≤ 1 + c[v,k-1]``, one constraint per common neighbour);
and ``z[k] ≤ c[v,k]`` for every ``v``.  Maximising ``Σ z`` makes the
completion slot ``s_{K - Σz}``; the greedy horizon guarantees ``Σz ≥ 1``.

Every MILP-feasible ``x`` is engine-feasible (understating ``c`` only
tightens the constraints) and every engine-feasible schedule is
MILP-feasible with honest ``c`` — so the MILP optimum *is* the model's
optimum, which the unit tests cross-check against the branch-and-bound and
the brute-force oracle on every instance of the small-``n`` grid.
"""

from __future__ import annotations

from importlib.util import find_spec

import numpy as np

from repro.dutycycle.schedule import WakeupSchedule
from repro.network.topology import WSNTopology
from repro.solvers.branch_bound import SolverError, check_instance, greedy_completion
from repro.utils.validation import require

__all__ = ["ilp_available", "minimum_completion_ilp"]


def ilp_available() -> bool:
    """Whether the scipy/HiGHS MILP is importable (without importing it)."""
    return find_spec("scipy") is not None


def minimum_completion_ilp(
    topology: WSNTopology,
    covered: frozenset[int],
    *,
    schedule: WakeupSchedule | None = None,
    start_time: int = 1,
    horizon: int | None = None,
) -> int:
    """Optimal completion slot from ``(covered, start_time)`` via HiGHS.

    ``horizon`` bounds the time-indexed formulation and must admit a
    feasible schedule; it defaults to the greedy completion slot (always
    feasible).  Raises :class:`SolverError` when scipy is unavailable, the
    topology is disconnected, or the solver fails, and :class:`ValueError`
    for malformed instances
    (:func:`~repro.solvers.branch_bound.check_instance`).
    """
    check_instance(topology, covered, schedule, start_time)
    if not ilp_available():
        raise SolverError(
            "the ILP voter needs scipy (HiGHS); the exact tier itself does not"
        )
    from scipy import sparse  # gated: importing scipy costs more than the package
    from scipy.optimize import Bounds, LinearConstraint, milp

    full = topology.node_set
    if covered == full:
        return start_time - 1
    if horizon is None:
        horizon = greedy_completion(topology, covered, start_time, schedule)
        if horizon is None:
            raise SolverError(
                "topology is disconnected: some node can never receive the message"
            )

    def awake(u: int, slot: int) -> bool:
        return schedule is None or schedule.is_active(u, slot)

    nodes = list(topology.node_ids)
    slots = [
        s
        for s in range(start_time, horizon + 1)
        if any(awake(u, s) for u in nodes)
    ]
    require(bool(slots), "horizon admits no slot with an awake node")
    num_slots = len(slots)

    # Variable layout: x (awake node-slot pairs), then c (node x slot), then z.
    x_index: dict[tuple[int, int], int] = {}
    for k, s in enumerate(slots):
        for u in nodes:
            if awake(u, s):
                x_index[(u, k)] = len(x_index)
    num_x = len(x_index)
    c_index = {
        (v, k): num_x + i * num_slots + k
        for i, v in enumerate(nodes)
        for k in range(num_slots)
    }
    num_vars = num_x + len(nodes) * num_slots + num_slots
    z_offset = num_x + len(nodes) * num_slots

    def covered_before(v: int, k: int) -> tuple[bool, int]:
        """``c[v, k-1]`` as ``(is_constant, constant_or_variable_index)``."""
        if v in covered:
            return True, 1  # initially covered nodes stay covered
        if k == 0:
            return True, 0
        return False, c_index[(v, k - 1)]

    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    upper: list[float] = []
    row = 0

    def add(terms: list[tuple[int, float]], ub: float) -> None:
        nonlocal row
        for col, val in terms:
            rows.append(row)
            cols.append(col)
            vals.append(val)
        upper.append(ub)
        row += 1

    lower_var = np.zeros(num_vars)
    upper_var = np.ones(num_vars)
    for v in covered:
        for k in range(num_slots):
            lower_var[c_index[(v, k)]] = 1.0  # initially covered stay covered

    for k in range(num_slots):
        for u in nodes:
            if (u, k) not in x_index:
                continue
            # x[u,k] <= c[u,k-1]: the transmitter already holds the message.
            is_const, before = covered_before(u, k)
            if is_const:
                if before == 0:
                    upper_var[x_index[(u, k)]] = 0.0
            else:
                add([(x_index[(u, k)], 1.0), (before, -1.0)], 0.0)
        for v in nodes:
            # Monotone, honest coverage:
            # c[v,k] <= c[v,k-1] + sum_{u in N(v) awake at k} x[u,k]
            # c[v,k] >= c[v,k-1]
            terms = [(c_index[(v, k)], 1.0)]
            is_const, before = covered_before(v, k)
            constant = 0.0
            if is_const:
                constant = float(before)
            else:
                terms.append((before, -1.0))
                add([(before, 1.0), (c_index[(v, k)], -1.0)], 0.0)
            for u in topology.neighbors(v):
                if (u, k) in x_index:
                    terms.append((x_index[(u, k)], -1.0))
            add(terms, constant)
            # z[k] <= c[v,k]: completion needs every node covered.
            add([(z_offset + k, 1.0), (c_index[(v, k)], -1.0)], 0.0)
        # Conflicts: u and w may not transmit together while a common
        # neighbour v is still uncovered at the start of the slot.
        awake_now = [u for u in nodes if (u, k) in x_index]
        for i, u in enumerate(awake_now):
            for w in awake_now[i + 1:]:
                common = topology.neighbors(u) & topology.neighbors(w)
                for v in sorted(common):
                    is_const, before = covered_before(v, k)
                    terms = [
                        (x_index[(u, k)], 1.0),
                        (x_index[(w, k)], 1.0),
                    ]
                    bound = 1.0
                    if is_const:
                        bound += float(before)
                    else:
                        terms.append((before, -1.0))
                    add(terms, bound)

    matrix = sparse.csr_matrix(
        (vals, (rows, cols)), shape=(row, num_vars)
    )
    constraints = LinearConstraint(matrix, ub=np.asarray(upper))
    objective = np.zeros(num_vars)
    objective[z_offset:] = -1.0  # maximise the number of complete slots
    integrality = np.zeros(num_vars)
    integrality[:num_x] = 1
    integrality[z_offset:] = 1
    result = milp(
        c=objective,
        constraints=constraints,
        integrality=integrality,
        bounds=Bounds(lb=lower_var, ub=upper_var),
    )
    if not result.success:  # pragma: no cover - horizon is always feasible
        raise SolverError(f"HiGHS failed on the exact-tier MILP: {result.message}")
    complete_slots = int(round(-result.fun))
    if complete_slots < 1:  # pragma: no cover - horizon is always feasible
        raise SolverError("MILP found no completing schedule within the horizon")
    return slots[num_slots - complete_slots]
