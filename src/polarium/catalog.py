"""Space-spec strings and the construction dispatch.

Grammar: a family tag with comma-separated projective dimension and field
order -- "W(3,2)", "Q(4,3)", "Q+(3,3)", "Q-(5,2)", "H(4,4)" -- plus nested
derived constructions "P(W(3,5))", "dual(H(4,4))" and "grid(4)".
"""

from __future__ import annotations

import re

from polarium import derived
from polarium.forms import CanonicalSpaceSpec, canonical_form
from polarium.space import DEFAULT_MAX_POINTS, PolarSpace


class SpecParseError(ValueError):
    """A space spec string does not match the grammar."""


# full catalog shipped with golden expectation files
CATALOG = [
    "W(3,2)", "W(3,3)", "W(5,2)", "Q(4,2)", "Q(4,3)", "Q(6,2)",
    "Q+(3,3)", "Q+(3,4)", "Q-(5,2)", "H(3,4)",
    "P(W(3,5))", "dual(H(4,4))", "grid(4)",
]

_CLASSICAL = re.compile(r"^(W|Q\+|Q-|Q|H)\((\d+),(\d+)\)$")
_GRID = re.compile(r"^grid\((\d+)\)$")
_NESTED = re.compile(r"^(P|dual)\((.+)\)$")


def parse_space_spec(text: str) -> CanonicalSpaceSpec:
    s = text.strip().replace(" ", "")
    m = _GRID.match(s)
    if m:
        return CanonicalSpaceSpec("grid", proj_dim=int(m.group(1)))
    m = _NESTED.match(s)
    if m and not _CLASSICAL.match(s):
        fam = "payne" if m.group(1) == "P" else "dual"
        inner = parse_space_spec(m.group(2))
        if fam == "payne" and (inner.family != "W" or inner.proj_dim != 3):
            raise SpecParseError(f"Payne derivation needs a W(3,q) base, got {inner}")
        return CanonicalSpaceSpec(fam, inner=inner)
    m = _CLASSICAL.match(s)
    if m:
        return CanonicalSpaceSpec(m.group(1), proj_dim=int(m.group(2)),
                                  order=int(m.group(3)))
    raise SpecParseError(f"cannot parse space spec {text!r}")


def build_space(spec, *, max_points: int = DEFAULT_MAX_POINTS) -> PolarSpace:
    """Construct the polar space named by a spec string or CanonicalSpaceSpec."""
    if isinstance(spec, str):
        spec = parse_space_spec(spec)
    name = str(spec)
    if spec.family == "grid":
        if spec.proj_dim < 2:
            raise SpecParseError("grids need order >= 2")
        return derived.grid(spec.proj_dim)
    if spec.family == "payne":
        base = build_space(spec.inner, max_points=max_points)
        return derived.payne_derive(base, 0)
    if spec.family == "dual":
        base = build_space(spec.inner, max_points=max_points)
        try:
            return derived.dualize(base)
        except ValueError as exc:
            raise SpecParseError(str(exc)) from exc
    try:
        form = canonical_form(spec)
    except ValueError as exc:
        raise SpecParseError(str(exc)) from exc
    grid_family = spec.family == "Q+" and spec.proj_dim == 3
    return PolarSpace.from_form(form, name, max_points=max_points,
                                grid_family=grid_family)
