"""jordal: exact verification of Hermitian Jordan algebras and their norm geometry.

The package builds the commutative algebras of (k+1) x (k+1) Hermitian
matrices over the four composition algebras, reconstructs their product
from the generic norm form alone, and checks every identity and dimension
claim with rational arithmetic by default.
"""

from .composition import cd_conj, cd_mul, cd_norm
from .jordan import (JordanElement, JordanSpec, char_coeffs, identity, jordan_mul,
                     jordan_rank, mult_operator, norm_form, quadratic_rep,
                     random_element)
from .polarization import PolarizedForm, covector_slot, full_polarize, partial_polarize
from .reconstruction import (NormFrame, derivative_product_oracle, frame, inner,
                             reconstructed_product, sharp, structural_map, tau,
                             unit_pairing)
from .geometry import (RankOnePoint, dual_point, product_projection,
                       sample_rank_one, tangent_frame, tangent_intersection,
                       terracini_dim, terracini_expected)
from .symmetry import (GroupElementSample, automorphism_trichotomy,
                       lie_triple_sides, permutation_conjugation_sample,
                       structural_sample)
from .cubic import adjoint
from .report import CheckResult, VerificationReport, emit_report, write_report
from .runner import InvalidConfig, RunConfig, dimension_table, run_suite

__version__ = "0.1.0"

__all__ = [
    "cd_conj", "cd_mul", "cd_norm",
    "JordanElement", "JordanSpec", "char_coeffs", "identity",
    "jordan_mul", "jordan_rank", "mult_operator", "norm_form",
    "quadratic_rep", "random_element",
    "PolarizedForm", "covector_slot", "full_polarize", "partial_polarize",
    "NormFrame", "derivative_product_oracle", "frame", "inner",
    "reconstructed_product", "sharp", "structural_map", "tau", "unit_pairing",
    "RankOnePoint", "dual_point", "product_projection", "sample_rank_one",
    "tangent_frame", "tangent_intersection",
    "terracini_dim", "terracini_expected",
    "GroupElementSample", "automorphism_trichotomy", "lie_triple_sides",
    "permutation_conjugation_sample", "structural_sample",
    "adjoint",
    "CheckResult", "VerificationReport", "emit_report", "write_report",
    "InvalidConfig", "RunConfig", "dimension_table", "run_suite",
    "__version__",
]
