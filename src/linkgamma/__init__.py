"""Exact concordance invariants of 3-component links from Seifert-matrix
data: gamma sequences, the rational function packaging them, swap and
mixed-derivative transforms, beta invariants, equivalence modulo the shift
action, and Milnor-invariant residues."""

from .equivalence import EquivVerdict, are_equivalent, canonicalize, ratfn_equivalent
from .exactnum import (
    Poly,
    RatFn,
    Series,
    poly_gcd,
    poly_str,
    ratfn_eval,
    ratfn_reduce,
    series_compose,
    series_expand_at_one,
)
from .gamma import (
    GammaSeq,
    SeifertPresentation,
    derivative_class,
    gamma_k,
    gamma_seq,
    gen_presentation,
    h_closed_form,
    intersection_form,
    validate,
)
from .milnor import MilnorResidue, milnor_residues
from .polylin import (
    NotUnimodularError,
    adjugate,
    det,
    identity,
    int_inverse,
    mat_mul,
    mat_vec,
    transpose,
    vec_dot,
)
from .transforms import apply_shift, beta_from_gamma, mixed_gamma0, swap_seq

__version__ = "0.1.0"

__all__ = [
    "EquivVerdict",
    "GammaSeq",
    "MilnorResidue",
    "NotUnimodularError",
    "Poly",
    "RatFn",
    "SeifertPresentation",
    "Series",
    "adjugate",
    "apply_shift",
    "are_equivalent",
    "beta_from_gamma",
    "canonicalize",
    "derivative_class",
    "det",
    "gamma_k",
    "gamma_seq",
    "gen_presentation",
    "h_closed_form",
    "identity",
    "int_inverse",
    "intersection_form",
    "mat_mul",
    "mat_vec",
    "milnor_residues",
    "mixed_gamma0",
    "poly_gcd",
    "poly_str",
    "ratfn_equivalent",
    "ratfn_eval",
    "ratfn_reduce",
    "series_compose",
    "series_expand_at_one",
    "swap_seq",
    "transpose",
    "validate",
    "vec_dot",
]
