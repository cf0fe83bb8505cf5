"""Exact verification toolkit for a family of Seifert manifolds.

The package relates four descriptions of the same spaces and checks,
by exact integer computation, that they agree:

* cyclically presented fundamental groups (``presentations``),
* first homology via Smith normal forms and resultants (``homology``),
* (1,1)-knot parameters in lens spaces with a move-by-move reduction
  engine (``knots11``),
* glued sphere tessellations that realize the knots combinatorially
  (``dunwoody``),
* Fox derivatives and Alexander polynomials (``foxcalc``).

``verify.run_all`` executes every built-in consistency check; the
``seifknot`` console script exposes the same operations one at a time.
"""

from .dunwoody import (
    DiagramParams,
    GluedDiagram,
    GluingError,
    check_seifert_diagram,
    expected_identifications,
)
from .foxcalc import (
    LaurentPoly,
    alexander_matrix,
    alexander_polynomial,
    example_knot_presentation,
    fox_derivative,
    laurent_determinant,
    laurent_gcd,
)
from .freegroup import (
    FreeWord,
    format_word,
    generator,
    identity,
    parse_word,
    seifert_word,
)
from .homology import (
    AbelianGroup,
    bareiss_determinant,
    circulant_order,
    cokernel,
    first_homology,
    resultant,
    seifert_h1,
    smith_normal_form,
    verify_snf_certificate,
)
from .knots11 import (
    CoveredKnot,
    KnotParams,
    UnsupportedTwist,
    band_swap,
    coincident_seifert_params,
    knot_from_seifert,
    lens_closed_form,
    lens_name,
    normalize_lens,
    reduce_to_lens,
    swap,
)
from .presentations import (
    BudgetExceeded,
    Presentation,
    count_homomorphisms,
    count_seifert_homomorphisms,
    cyclic_presentation,
    seifert_cyclic_presentation,
    seifert_parameter_grid,
    standard_seifert_presentation,
    symmetric_group,
    tietze_witnesses,
    validate_seifert_params,
)
from .verify import CheckResult, run_all

__version__ = "0.1.0"

__all__ = [
    "AbelianGroup",
    "BudgetExceeded",
    "CheckResult",
    "CoveredKnot",
    "DiagramParams",
    "FreeWord",
    "GluedDiagram",
    "GluingError",
    "KnotParams",
    "LaurentPoly",
    "Presentation",
    "UnsupportedTwist",
    "alexander_matrix",
    "alexander_polynomial",
    "band_swap",
    "bareiss_determinant",
    "check_seifert_diagram",
    "circulant_order",
    "coincident_seifert_params",
    "cokernel",
    "count_homomorphisms",
    "count_seifert_homomorphisms",
    "cyclic_presentation",
    "example_knot_presentation",
    "expected_identifications",
    "first_homology",
    "format_word",
    "fox_derivative",
    "generator",
    "identity",
    "knot_from_seifert",
    "laurent_determinant",
    "laurent_gcd",
    "lens_closed_form",
    "lens_name",
    "normalize_lens",
    "parse_word",
    "reduce_to_lens",
    "resultant",
    "run_all",
    "seifert_cyclic_presentation",
    "seifert_h1",
    "seifert_parameter_grid",
    "seifert_word",
    "smith_normal_form",
    "standard_seifert_presentation",
    "swap",
    "symmetric_group",
    "tietze_witnesses",
    "validate_seifert_params",
    "verify_snf_certificate",
]
