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
    return PolarSpace.combinatorial(f"grid({s})", labels, rows + cols, grid_family=True,
                                    provenance={"construction": "grid", "order": s})


def payne_derive(base: PolarSpace, x: int) -> PolarSpace:
    """P(W3(q), x): points off x^perp; lines are the restricted old lines not
    through x together with the punctured hyperbolic lines through x."""
    if not 0 <= x < base.n_points:
        raise ValueError(f"{x} is not a point of {base.name}")
    q = base.field.q if base.field is not None else None
    if q is None:
        raise ValueError("Payne derivation needs a form-backed W(3,q) base")
    keep = ~base.perp_mask([x])
    new_index = np.cumsum(keep) - 1  # the new index of each kept point, ascending
    labels = [base.points[p] for p in np.flatnonzero(keep).tolist()]

    # a line not through x meets x^perp in one point (restricted to the
    # others, q of the q + 1 form-backed points) or lies in it (dropped)
    members, n = base.line_members, base.n_points
    off = np.append(keep, False)[members]
    counts, sizes = off.sum(axis=1), (members < n).sum(axis=1)
    other = ~(members == x).any(axis=1) & (counts > 0)
    odd = np.flatnonzero(other & (counts != sizes - 1))
    if len(odd):
        raise SpaceError(f"{base.name}: line {base.lines[odd[0]]} meets x^perp oddly")
    lines = new_index[np.extract(off[other], members[other])].reshape(-1, q).tolist()
    ys = np.flatnonzero(keep)
    hlines = hyperbolic.hyperbolic_lines(base, np.column_stack([np.full_like(ys, x), ys]))
    for pts in sorted(set(hlines.points())):
        lines.append(tuple(sorted(int(new_index[p]) for p in pts if p != x)))

    space = PolarSpace.combinatorial(
        f"P({base.name})", labels, lines,
        provenance={"construction": "payne", "base": base.name,
                    "x": base.points[x]})
    # order (q-1, q+1): q^3 points, q-point lines, q+2 lines per point
    if space.n_points != q ** 3:
        raise SpaceError(f"{space.name}: expected {q ** 3} points, got {space.n_points}")
    if set((space.line_members < space.n_points).sum(axis=1).tolist()) != {q}:
        raise SpaceError(f"{space.name}: lines must have {q} points")
    per_point = space.lines_matrix.sum(axis=0)
    if set(per_point.tolist()) != {q + 2}:
        raise SpaceError(f"{space.name}: points must lie on {q + 2} lines")
    return space


def dualize(space: PolarSpace) -> PolarSpace:
    """Point-line dual of a generalized quadrangle (rank 2, constant orders)."""
    if space.rank != 2:
        raise ValueError(f"{space.name}: dualization needs a rank-2 space")
    members = space.line_members
    sizes = set((members < space.n_points).sum(axis=1).tolist())
    degrees = set(space.lines_matrix.sum(axis=0).tolist())
    if len(sizes) != 1 or len(degrees) != 1:
        raise ValueError(f"{space.name}: not a GQ (orders not constant)")
    (size,), points = sizes, space.points
    labels = [tuple(sorted(points[p] for p in row)) for row in members[:, :size].tolist()]
    dual_lines = padded_columns(space.lines_matrix.T)[0].tolist()  # the lines on each point
    return PolarSpace.combinatorial(
        f"dual({space.name})", labels, dual_lines, grid_family=space.grid_family,
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
        ell = next(k for k, line in enumerate(base.lines) if y in line and x not in line)
        zs = np.flatnonzero(~base.perp_mask([y]))
        hs = hyperbolic.hyperbolic_lines(base, np.column_stack([np.full_like(zs, y), zs]))
        # y lies on each line and in x^perp: one point of x^perp is y alone, not x
        fits = np.flatnonzero((hs.rows() & xperp).sum(axis=1) == 1)
        if not len(fits):
            continue
        ell_y = [p for p in base.lines[ell] if p != y]
        h_y = [p for p in hs.points()[fits[0]] if p != y]
        a, b = sorted(h_y)[:2]
        generator = sorted(space.index_of(base.points[p]) for p in ell_y)
        return {  # serialized as the checkers do: lists, sorted point sets
            "a": list(base.points[a]),
            "b": list(base.points[b]),
            "generator": [list(space.points[p]) for p in generator],
        }
    raise SpaceError(f"{space.name}: no admissible (y, l, h) triple found")
