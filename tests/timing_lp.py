"""The shift-capped tour timing as a linear program, for tests.

`routes.schedule_tour` times a tour whose earliest schedule busts the shift
cap in closed form: the earliest schedule from the smallest departure that
meets the cap. `schedule_lp` is the timing relaxation that the closed form
replaces, solved with `scipy.optimize.linprog`; the differential test in
`test_routes.py` checks the two against each other.
"""

from __future__ import annotations

import numpy as np

from cdsp.routes import InfeasibleTourError, Tour


def schedule_lp(trips, inst, windows) -> Tour:
    """Exact timing relaxation when the earliest schedule busts the shift cap,
    in `schedule_tour`'s shape: the timed tour.

    min sum of trip returns s.t. leg precedences, windows, shift cap;
    variables are the departure and one visit time per node.
    """
    from scipy.optimize import linprog

    travel = inst.travel
    release, deadline = windows.release, windows.deadline
    order = [node for trip in trips for node in trip]
    col = {node: i + 1 for i, node in enumerate(order)}  # column 0 = departure

    ncols = len(order) + 1
    c = np.zeros(ncols)
    rows, rhs = [], []

    def leg(u_col: int, v_col: int, cost: float):
        row = np.zeros(ncols)
        row[u_col], row[v_col] = 1.0, -1.0
        rows.append(row)
        rhs.append(-cost)

    last_node = None
    for trip in trips:
        if last_node is None:
            leg(0, col[trip[0]], travel[0, trip[0]])
        else:
            # depot pass-through: return leg plus outbound leg of the next trip
            leg(col[last_node], col[trip[0]], travel[last_node, 0] + travel[0, trip[0]])
        for u, v in zip(trip, trip[1:]):
            leg(col[u], col[v], travel[u, v])
        last_node = trip[-1]
        c[col[last_node]] = 1.0
    # shift cap: z_last + return leg - departure <= cap
    row = np.zeros(ncols)
    row[col[last_node]], row[0] = 1.0, -1.0
    rows.append(row)
    rhs.append(inst.shift_cap - travel[last_node, 0])

    bounds = [(0.0, None)] + [(release[node], deadline[node]) for node in order]
    res = linprog(c, A_ub=np.array(rows), b_ub=np.array(rhs), bounds=bounds, method="highs")
    if not res.success:
        raise InfeasibleTourError(None, "no timing satisfies the shift cap")
    x = res.x
    visits = [[float(x[col[node]]) for node in trip] for trip in trips]
    deliveries = [float(x[col[trip[-1]]] + travel[trip[-1], 0]) for trip in trips]
    return Tour(trips, float(x[0]), visits, deliveries)
