"""Independent validation of coloring verdicts.

Everything in this module is deliberately disjoint from the solver's code
path: a direct constraint checker, a bitmask brute-force enumerator for
small instances, and a clause-based DPLL decision procedure.  They exist
so that SAT colorings and UNSAT claims never rest on a single
implementation.
"""

from __future__ import annotations

import numpy as np

_AT = "AT"

BRUTE_FORCE_LIMIT = 22  # 2^22 assignments is the practical enumeration cap


def check_coloring(instance, coloring: dict) -> tuple[bool, list[str]]:
    """Re-validate a coloring against the raw constraints.

    ``coloring`` maps every ray index to "AT" or "AF".  Checks that each
    orthogonal pair has at most one AT and each tripod exactly one AT,
    touching only the instance's pair and tripod lists.
    """
    violations = []
    for i in range(instance.ray_count):
        if coloring.get(i) not in ("AT", "AF"):
            violations.append(f"ray {i} has no AT/AF color")
    for i, j in instance.ortho_pairs:
        if coloring.get(i) == _AT and coloring.get(j) == _AT:
            violations.append(f"orthogonal pair ({i}, {j}) has two ATs")
    for a, b, c in instance.tripods:
        ats = sum(1 for r in (a, b, c) if coloring.get(r) == _AT)
        if ats != 1:
            violations.append(f"tripod ({a}, {b}, {c}) has {ats} ATs")
    return not violations, violations


def brute_force_colorings(instance) -> tuple[int, dict | None]:
    """Count all valid colorings by enumerating every AT/AF assignment.

    Returns ``(count, example)`` where ``example`` is the valid coloring
    with the smallest bitmask (bit i set means ray i is AT), or None when
    the instance is non-colorable.  Only usable for small instances.
    Each constraint is one test of its member bits: a pair is violated
    when both bits are set, and a tripod holds exactly one AT when the
    masked bits t are nonzero with t & (t - 1) zero (a single set bit).
    """
    n = instance.ray_count
    if n > BRUTE_FORCE_LIMIT:
        raise ValueError(f"brute force limited to {BRUTE_FORCE_LIMIT} rays, got {n}")
    masks = np.arange(1 << n, dtype=np.uint32)
    valid = np.ones(masks.shape, dtype=bool)
    for i, j in instance.ortho_pairs:
        pair = np.uint32((1 << i) | (1 << j))
        valid &= (masks & pair) != pair
    for a, b, c in instance.tripods:
        t = masks & np.uint32((1 << a) | (1 << b) | (1 << c))
        valid &= (t != 0) & ((t & (t - np.uint32(1))) == 0)
    count = int(np.count_nonzero(valid))
    example = None
    if count:
        mask = int(masks[valid][0])
        example = {i: ("AT" if (mask >> i) & 1 else "AF") for i in range(n)}
    return count, example


def _instance_clauses(instance) -> list[list[int]]:
    """CNF encoding: literal v+1 means ray v is AT, negative means AF."""
    clauses = []
    for i, j in instance.ortho_pairs:
        clauses.append([-(i + 1), -(j + 1)])
    for a, b, c in instance.tripods:
        clauses.append([a + 1, b + 1, c + 1])
    return clauses


def dpll_solve(instance) -> tuple[bool, dict | None]:
    """Decide colorability with a plain DPLL over the CNF encoding.

    Unit propagation plus first-unassigned-variable branching, True first.
    Returns ``(sat, model)`` with ``model`` a coloring dict on SAT.
    Independent of the graph-based solver's propagation and heuristics.
    """
    n = instance.ray_count
    clauses = _instance_clauses(instance)

    def propagate(local: dict[int, bool]) -> dict[int, bool] | None:
        changed = True
        while changed:
            changed = False
            for clause in clauses:
                unassigned = None
                satisfied = False
                open_count = 0
                for lit in clause:
                    var = abs(lit) - 1
                    if var in local:
                        if local[var] == (lit > 0):
                            satisfied = True
                            break
                    else:
                        open_count += 1
                        unassigned = lit
                if satisfied:
                    continue
                if open_count == 0:
                    return None
                if open_count == 1:
                    local[abs(unassigned) - 1] = unassigned > 0
                    changed = True
        return local

    # Depth-first over (parent assignment, variable, value) branches on an
    # explicit stack, so search depth is not bounded by the recursion
    # limit; the True branch is pushed last so it is explored first.
    model = None
    stack = [({}, None, None)]
    while stack:
        parent, var, value = stack.pop()
        local = dict(parent)
        if var is not None:
            local[var] = value
        local = propagate(local)
        if local is None:
            continue
        var = next((v for v in range(n) if v not in local), None)
        if var is None:
            model = local
            break
        stack.append((local, var, False))
        stack.append((local, var, True))
    if model is None:
        return False, None
    coloring = {v: ("AT" if model.get(v, False) else "AF") for v in range(n)}
    return True, coloring
