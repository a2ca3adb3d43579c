"""Non-form-backed constructions: grids, Payne derivation, dualization.

The Payne derivation P(W3(q), x) discards the singular hyperplane of x and
adjoins the hyperbolic lines through x (with x removed) as new lines,
giving a generalized quadrangle of order (q-1, q+1).  Dualization swaps
the roles of points and lines of a rank-2 space.
"""

from __future__ import annotations

import numpy as np

from polarium import hyperbolic
from polarium.space import PolarSpace, SpaceError, padded_columns


def grid(s: int) -> PolarSpace:
    """The (s+1) x (s+1) grid: points are cells, lines are rows and columns."""
    if s < 2:
        raise ValueError("grids need order s >= 2")
    side = s + 1
    labels = [(i, j) for i in range(side) for j in range(side)]
    rows = [tuple(i * side + j for j in range(side)) for i in range(side)]
    cols = [tuple(i * side + j for i in range(side)) for j in range(side)]
    return PolarSpace.combinatorial(f"grid({s})", labels, rows + cols, rank=2,
                                    grid_family=True,
                                    provenance={"construction": "grid", "order": s})


def payne_derive(base: PolarSpace, x: int) -> PolarSpace:
    """P(W3(q), x): points off x^perp; lines are the restricted old lines not
    through x together with the punctured hyperbolic lines through x."""
    if not 0 <= x < base.n_points:
        raise ValueError(f"{x} is not a point of {base.name}")
    q = base.field.q if base.field is not None else None
    if q is None:
        raise ValueError("Payne derivation needs a form-backed W(3,q) base")
    xperp = base.perp_mask([x])
    keep = ~xperp
    new_index = {}
    labels = []
    for p in np.flatnonzero(keep):
        new_index[int(p)] = len(labels)
        labels.append(base.points[int(p)])

    lines = []
    for line in base.lines:
        if x in line:
            continue
        restricted = tuple(sorted(new_index[p] for p in line if keep[p]))
        if len(restricted) == len(line) - 1:
            lines.append(restricted)
        elif restricted:
            raise SpaceError(f"{base.name}: line {line} meets x^perp oddly")
    ys = np.flatnonzero(keep)
    hlines = hyperbolic.hyperbolic_lines(base, np.column_stack([np.full_like(ys, x), ys]))
    for pts in sorted({h.points for h in hlines}):
        lines.append(tuple(sorted(new_index[p] for p in pts if p != x)))

    space = PolarSpace.combinatorial(
        f"P({base.name})", labels, lines, rank=2,
        provenance={"construction": "payne", "base": base.name,
                    "x": base.points[x]})
    # order (q-1, q+1): q^3 points, q-point lines, q+2 lines per point
    if space.n_points != q ** 3:
        raise SpaceError(f"{space.name}: expected {q ** 3} points, got {space.n_points}")
    if {len(l) for l in space.lines} != {q}:
        raise SpaceError(f"{space.name}: lines must have {q} points")
    per_point = space.lines_matrix.sum(axis=0)
    if set(per_point.tolist()) != {q + 2}:
        raise SpaceError(f"{space.name}: points must lie on {q + 2} lines")
    return space


def dualize(space: PolarSpace) -> PolarSpace:
    """Point-line dual of a generalized quadrangle (rank 2, constant orders)."""
    if space.rank != 2:
        raise ValueError(f"{space.name}: dualization needs a rank-2 space")
    sizes = {len(l) for l in space.lines}
    degrees = set(space.lines_matrix.sum(axis=0).tolist())
    if len(sizes) != 1 or len(degrees) != 1:
        raise ValueError(f"{space.name}: not a GQ (orders not constant)")
    labels = [tuple(sorted(space.points[p] for p in line)) for line in space.lines]
    dual_lines = padded_columns(space.lines_matrix.T)[0].tolist()  # the lines on each point
    return PolarSpace.combinatorial(
        f"dual({space.name})", labels, dual_lines, rank=2,
        grid_family=space.grid_family,
        provenance={"construction": "dual", "base": space.name})


def payne_a_failure_witness(space: PolarSpace) -> dict:
    """The explicit property-(A) failure of P(W3(q), x): a line l_y and a
    punctured hyperbolic line h_y with equal traces on l_y but l_y disjoint
    from h_y.  Built from the first admissible y, l, h in canonical order."""
    if space.provenance.get("construction") != "payne":
        raise ValueError("witness recipe applies to Payne-derived spaces")
    from polarium.catalog import build_space  # late import: avoids a cycle
    base = build_space(space.provenance["base"])
    x = base.index_of(space.provenance["x"])
    xperp = base.perp_mask([x])
    for y in np.flatnonzero(xperp):
        y = int(y)
        if y == x:
            continue
        xy_line = base.line_of_pair.get(tuple(sorted((x, y))))
        ell = next(k for k, line in enumerate(base.lines)
                   if y in line and k != xy_line and x not in line)
        h = None
        for z in np.flatnonzero(~base.perp_mask([y])):
            cand = hyperbolic.hyperbolic_line(base, y, int(z))
            inside_xperp = [p for p in cand.points if xperp[p]]
            if x not in cand.points and inside_xperp == [y]:
                h = cand
                break
        if h is None:
            continue
        ell_y = [p for p in base.lines[ell] if p != y]
        h_y = [p for p in h.points if p != y]
        a, b = sorted(h_y)[:2]
        generator = sorted(space.index_of(base.points[p]) for p in ell_y)
        return {  # serialized as the checkers do: lists, sorted point sets
            "a": list(base.points[a]),
            "b": list(base.points[b]),
            "generator": [list(space.points[p]) for p in generator],
        }
    raise SpaceError(f"{space.name}: no admissible (y, l, h) triple found")
