"""Hypergraphs from symmetric polynomials over odd-characteristic finite fields.

The package builds the k-uniform hypergraph whose edges are the k-sets
where a symmetric polynomial evaluates to a square, decides whether a
polynomial is admissible (not a constant multiple of a square, and with
an expansion whose coefficient ideal is the unit ideal), and verifies
the quasi-randomness counts and character-sum bounds that admissibility
is supposed to deliver, at desk scale and with exact arithmetic.

Public names are re-exported lazily: ``ffhyper.X``, ``from ffhyper
import X`` and ``import *`` import the submodule that defines X on
first use, so importing the package (or one submodule, such as the
command line) loads neither numpy nor the modules it does not use.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys((
        "ArityMismatch", "BudgetExceeded", "ConstantPolynomial", "DegreeMismatch",
        "DuplicateVertex", "EmptyGenerators", "FFHyperError", "FieldMismatch",
        "NotAdmissible", "NotMonic", "NotOddPrime", "NotSymmetric", "ParseError",
        "ReducibleModulus", "ZeroPolynomial",
    ), "errors"),
    **dict.fromkeys(("Field",), "field"),
    **dict.fromkeys((
        "MultiPoly", "UniPoly", "is_const_square", "multivar_gcd", "schwartz_zippel_bound",
        "squarefree_decomposition", "squarefree_part", "uni_squarefree_part",
        "univar_is_const_square", "zero_count",
    ), "poly"),
    **dict.fromkeys(("parse_poly", "poly_to_text"), "parse"),
    **dict.fromkeys(("Witness", "buchberger", "common_zero_search", "ideal_contains_one"),
                    "groebner"),
    **dict.fromkeys((
        "AdmissibilityVerdict", "is_admissible", "orbit_sum", "primitive_density_deg2_var3",
        "random_symmetric_poly",
    ), "admissible"),
    **dict.fromkeys(("CountReport",), "report"),
    **dict.fromkeys((
        "HypergraphView", "build_hypergraph", "count_epo_charsum", "count_epo_direct",
        "count_m_subsets", "epo_charsum", "omega_clique", "paley",
    ), "hypergraph"),
    **dict.fromkeys((
        "CrosscheckReport", "ErrorEnvelope", "ExceptionalSetX", "WeilCheck", "b_set_bound",
        "enumerate_B", "enumerate_X", "predict_envelope", "slavov_condition",
        "slavov_count", "tuple_count_crosscheck", "weil_check",
    ), "bounds"),
    **dict.fromkeys(("run_checks",), "verify"),
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError("module %r has no attribute %r" % (__name__, name)) from None
    value = getattr(importlib.import_module("." + module, __name__), name)
    globals()[name] = value
    return value
