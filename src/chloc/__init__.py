"""chloc: exact equivariant characteristic-class calculus for chain polynomials.

A pure-Python, exact-arithmetic library for

* truncated graded Chow rings over Q and Laurent series in an equivariant
  parameter (:mod:`chloc.rings`, :mod:`chloc.series`),
* Chern-character-based characteristic classes: Todd, Hirzebruch,
  equivariant Euler, Todd twists, and their comparison identity
  (:mod:`chloc.charclasses`),
* chain-polynomial combinatorics and diagonal symmetry groups
  (:mod:`chloc.chains`),
* localization products with tautological-relation extraction
  (:mod:`chloc.localize`),
* the equivariant small I-function and its Picard-Fuchs verification
  (:mod:`chloc.ifunction`),

plus a deterministic command-line front end (:mod:`chloc.cli`).

``import chloc`` runs no layer's code: each layer loads when first used, so
a command-line call loads only the layers its mode needs.
"""

import importlib.util
import sys
import threading
import types

# layer module -> the public names it defines
_LAYERS = {
    "chains": "ChainData SymmetryElement chain_solve grading_element is_calabi_yau is_symmetry"
    " sector selection_rule symmetry_group weight_sequence",
    "charclasses": "IdentityCheck KClass bernoulli equivariant_euler euler_identity_check"
    " hirzebruch_class hirzebruch_coefficient line_bundle stirling2 sum_of_roots todd"
    " todd_twist_ratio",
    "classexpr": "ParseError parse_class_expr",
    "cli": "",
    "ifunction": "ICoefficient PFItem PFReport b_range big_i_factor i_coefficient"
    " nonequivariant_limit picard_fuchs_check",
    "localize": "LocInput LocResult TautrelReport chain_specialization crosscheck_factors"
    " hodge_product localization_product tautological_crosscheck",
    "ratfunc": "BivarPoly RatFunc",
    "rings": "ChowElement Ring",
    "sampling": "",
    "series": "NotConvergentError QSeries q_exponential",
}
_HOME = {name: layer for layer, names in _LAYERS.items() for name in names.split()}

_LOADING = threading.RLock()


class _Layer(types.ModuleType):
    """A layer module whose code runs on the first read of any attribute.

    One lock covers every load, so no thread reads a layer that another is
    still running; ``importlib.util.LazyLoader`` lets one do so before
    Python 3.12.  A loaded layer is a plain module again.
    """

    def __getattribute__(self, attr):
        with _LOADING:
            namespace = object.__getattribute__(self, "__dict__")
            if "__builtins__" not in namespace:  # also marks the load as begun
                namespace["__builtins__"] = __builtins__
                namespace["__spec__"].loader.exec_module(self)
                self.__class__ = types.ModuleType
        return object.__getattribute__(self, attr)


# Every layer is in sys.modules and an attribute of the package, as if
# imported, but its code runs on the first read of one of its attributes.
for _layer in _LAYERS:
    _spec = importlib.util.find_spec(f"{__name__}.{_layer}")
    _module = globals()[_layer] = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
    _module.__class__ = _Layer
del _layer, _spec, _module


def __getattr__(name):
    """Resolve a public name on first use and keep it: later reads are dict hits."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value = getattr(globals()[_HOME[name]], name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})


__version__ = "0.1.0"

__all__ = [
    "BivarPoly",
    "ChainData",
    "ChowElement",
    "ICoefficient",
    "IdentityCheck",
    "KClass",
    "LocInput",
    "LocResult",
    "NotConvergentError",
    "ParseError",
    "PFItem",
    "PFReport",
    "QSeries",
    "RatFunc",
    "Ring",
    "SymmetryElement",
    "TautrelReport",
    "b_range",
    "bernoulli",
    "big_i_factor",
    "chain_solve",
    "crosscheck_factors",
    "equivariant_euler",
    "euler_identity_check",
    "chain_specialization",
    "grading_element",
    "hirzebruch_class",
    "hirzebruch_coefficient",
    "hodge_product",
    "i_coefficient",
    "is_calabi_yau",
    "is_symmetry",
    "line_bundle",
    "localization_product",
    "nonequivariant_limit",
    "parse_class_expr",
    "picard_fuchs_check",
    "q_exponential",
    "sector",
    "selection_rule",
    "stirling2",
    "sum_of_roots",
    "symmetry_group",
    "tautological_crosscheck",
    "todd",
    "todd_twist_ratio",
    "weight_sequence",
]
