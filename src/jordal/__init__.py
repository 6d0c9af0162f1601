"""jordal: exact verification of Hermitian Jordan algebras and their norm geometry.

The package builds the commutative algebras of (k+1) x (k+1) Hermitian
matrices over the four composition algebras, reconstructs their product
from the generic norm form alone, and checks every identity and dimension
claim with rational arithmetic by default.

Each public name resolves on first use: ``jordal.frame`` imports
``jordal.reconstruction`` and what it needs, not the checks, the report
writer or the command line. A name is looked up on its module at every
access, so a function patched there is what the package returns.
"""

import sys

__version__ = "0.1.0"

# public name: the module that defines it
_SOURCES = {
    **dict.fromkeys(("cd_conj", "cd_mul", "cd_norm"), "composition"),
    **dict.fromkeys((
        "JordanElement", "JordanSpec", "char_coeffs", "identity", "jordan_mul",
        "jordan_rank", "mult_operator", "norm_form", "quadratic_rep",
        "random_element"), "jordan"),
    **dict.fromkeys((
        "PolarizedForm", "covector_slot", "full_polarize", "partial_polarize"),
        "polarization"),
    **dict.fromkeys((
        "NormFrame", "derivative_product_oracle", "frame", "inner",
        "reconstructed_product", "sharp", "structural_map", "tau",
        "unit_pairing"), "reconstruction"),
    **dict.fromkeys((
        "RankOnePoint", "dual_point", "product_projection", "sample_rank_one",
        "tangent_frame", "tangent_intersection", "terracini_dim",
        "terracini_expected"), "geometry"),
    **dict.fromkeys((
        "GroupElementSample", "automorphism_trichotomy", "lie_triple_sides",
        "permutation_conjugation_sample", "structural_sample"), "symmetry"),
    "adjoint": "cubic",
    **dict.fromkeys((
        "CheckResult", "VerificationReport", "emit_report", "write_report"),
        "report"),
    **dict.fromkeys((
        "InvalidConfig", "RunConfig", "dimension_table", "run_suite"), "runner"),
}

__all__ = [*_SOURCES, "__version__"]


def __getattr__(name):
    if name not in _SOURCES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # the import statement's machinery, which -X importtime reports
    module = f"{__name__}.{_SOURCES[name]}"
    __import__(module)
    return getattr(sys.modules[module], name)
