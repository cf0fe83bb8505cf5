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

Importing the package runs none of its layers. Each layer is a lazy
module in ``sys.modules``: it is compiled and run when one of its
attributes is first read, so a command pays only for the layers it uses.
"""

import importlib.util
import sys

# The public names, by the layer that defines them.
_EXPORTS = {
    "dunwoody": (
        "DiagramParams",
        "GluedDiagram",
        "GluingError",
        "check_seifert_diagram",
        "expected_identifications",
    ),
    "foxcalc": (
        "LaurentPoly",
        "alexander_polynomial",
        "example_knot_presentation",
        "fox_derivative",
    ),
    "freegroup": (
        "FreeWord",
        "format_word",
        "generator",
        "identity",
        "parse_word",
        "seifert_word",
    ),
    "homology": (
        "AbelianGroup",
        "circulant_order",
        "cokernel",
        "first_homology",
        "seifert_h1",
        "smith_normal_form",
        "verify_snf_certificate",
    ),
    "knots11": (
        "CoveredKnot",
        "KnotParams",
        "UnsupportedTwist",
        "coincident_seifert_params",
        "knot_from_seifert",
        "lens_closed_form",
        "lens_name",
        "normalize_lens",
        "reduce_to_lens",
    ),
    "presentations": (
        "BudgetExceeded",
        "Presentation",
        "count_homomorphisms",
        "count_seifert_homomorphisms",
        "cyclic_presentation",
        "seifert_cyclic_presentation",
        "seifert_parameter_grid",
        "standard_seifert_presentation",
        "symmetric_group",
        "tietze_witnesses",
        "validate_seifert_params",
    ),
    "verify": ("CheckResult", "run_all"),
}
_LAYER_OF = {name: layer for layer, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_LAYER_OF)


def _lazy_layer(layer: str):
    """Register seifknot.<layer> in sys.modules without running it; the
    first attribute read runs it (importlib.util.LazyLoader)."""
    name = f"{__name__}.{layer}"
    spec = importlib.util.find_spec(name)
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    loader.exec_module(module)
    return module


globals().update((layer, _lazy_layer(layer)) for layer in _EXPORTS)


def __getattr__(name: str):
    """An exported name, read from its layer at each access (PEP 562)."""
    layer = _LAYER_OF.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[layer], name)
