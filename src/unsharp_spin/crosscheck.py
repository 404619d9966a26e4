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


def _instance_clauses(instance) -> list[list[tuple[int, bool]]]:
    """CNF encoding: literal (v, True) means ray v is AT, (v, False) AF."""
    pairs = [[(i, False), (j, False)] for i, j in instance.ortho_pairs]
    return pairs + [[(r, True) for r in tripod] for tripod in instance.tripods]


def dpll_solve(instance) -> tuple[bool, dict | None]:
    """Decide colorability with a plain DPLL over the CNF encoding.

    Unit propagation plus first-unassigned-variable branching, True first.
    An assignment visits only the clauses of its variable (occurrence
    lists), queued on the trail that backtracking unassigns.  Unit
    propagation reaches the same closure, or a conflict, in any order, so
    the search tree and model are those of rescanning every clause to a
    fixpoint.  Returns ``(sat, model)`` with ``model`` a coloring dict on
    SAT.  Independent of the graph-based solver's propagation and
    heuristics.
    """
    n = instance.ray_count
    occurs = [[] for _ in range(n)]
    for clause in _instance_clauses(instance):
        for var in {var for var, _ in clause}:
            occurs[var].append(clause)
    value: list[bool | None] = [None] * n
    trail: list[int] = []

    def assign(var: int, val: bool) -> bool:
        # set var and propagate through the clauses of each variable the
        # trail gains; False on a clause with every literal false
        head = len(trail)
        value[var] = val
        trail.append(var)
        while head < len(trail):
            for clause in occurs[trail[head]]:
                open_count = 0
                for lit in clause:
                    current = value[lit[0]]
                    if current is None:
                        open_count += 1
                        unassigned = lit
                    elif current == lit[1]:
                        break
                else:
                    if open_count == 0:
                        return False
                    if open_count == 1:
                        value[unassigned[0]] = unassigned[1]
                        trail.append(unassigned[0])
            head += 1
        return True

    # Depth-first over (trail length at the parent, variable, value)
    # branches on an explicit stack, so search depth is not bounded by the
    # recursion limit; the True branch is pushed last so it is explored
    # first.  Every variable below a branch variable is assigned at its
    # parent, so the next branch variable is the first unassigned above it.
    stack = [(0, -1, None)]
    while stack:
        mark, var, val = stack.pop()
        for undone in trail[mark:]:
            value[undone] = None
        del trail[mark:]
        if var >= 0 and not assign(var, val):
            continue
        var = next((v for v in range(var + 1, n) if value[v] is None), None)
        if var is None:
            return True, {v: ("AT" if value[v] else "AF") for v in range(n)}
        stack.append((len(trail), var, False))
        stack.append((len(trail), var, True))
    return False, None
