"""Finite classical polar spaces over small fields, their incidence-theoretic
objects (perps, hyperbolic lines, generators, arising hyperplanes as rows,
embeddings and quotients), the classification of a hyperplane, and mechanical
checkers for the symplectic characterization properties (A), (B), (C), (D),
regular pairs and centric triads."""

from polarium.gf import Field
from polarium.linalg import Subspace, enumerate_points, span
from polarium.forms import CanonicalSpaceSpec, Form
from polarium.space import PolarSpace
from polarium.catalog import CATALOG, build_space, parse_space_spec
from polarium.hyperbolic import all_hyperbolic_lines, linear_space
from polarium.embed import (Embedding, minimal_embedding, natural_embedding,
                            quotient_embedding, universal_embedding_sp_char2)
from polarium.hyperplanes import arising_hyperplanes, classify
from polarium.props import PropertyReport, full_report

__version__ = "0.1.0"

__all__ = [
    "Field", "Subspace", "span", "enumerate_points",
    "Form", "CanonicalSpaceSpec",
    "PolarSpace",
    "build_space", "parse_space_spec", "CATALOG",
    "all_hyperbolic_lines", "linear_space",
    "Embedding", "natural_embedding", "minimal_embedding",
    "quotient_embedding", "universal_embedding_sp_char2",
    "arising_hyperplanes", "classify",
    "full_report", "PropertyReport",
]
