"""Verification toolkit for finite self-distributive structures.

Builds racks and weak racks on finite carriers, equips them with
trigonometric (cos/sin) and exponential maps, checks the Euler-style
diagonal formula and hyperbolic factorization, verifies quantum
Yang-Baxter equations and three-map systems exhaustively, enumerates all
racks on tiny carriers, and evaluates exact trace-product closed forms for
sums of powers of unimodular 2x2 rational matrices.

Importing the package imports none of its modules.  Each public name is
looked up in its home module on every access, so ``import rackwork`` does
not load numpy, and the exact matrix series (``rackwork.mat2``,
``rackwork.trace_product_sum``) never does.  A function replaced on its
home module is the one ``rackwork.<name>`` returns.
"""

import importlib

__version__ = "0.1.0"

# home module -> the public names it defines
_EXPORTS = {
    "errors": (
        "CarrierMismatch", "CarrierTooLarge", "DeterminantNotOne",
        "IndexOutOfRange", "InvalidFile", "KindMismatch", "LevelTooLarge",
        "NoIdentity", "NoInverse", "NotAssociative", "NotLeftInvertible",
        "RackworkError", "SizeMismatch",
    ),
    "tables": (
        "GroupTable", "OpTable", "apply", "derive_diamond",
        "is_left_invertible", "make_op_table", "validate_group",
    ),
    "structures": (
        "RACK", "UNCHECKED", "WEAK_RACK", "AxiomReport", "Structure",
        "boolean_weak_rack_implication", "boolean_weak_rack_lattice",
        "check_morphism", "check_rack_axioms", "check_weak_rack_axioms",
        "conjugation_rack", "direct_product", "dual_rack", "make_structure",
        "product_with_dual", "trivial_rack",
    ),
    "trig": (
        "TrigContext", "TrigReport", "check_trig_properties",
        "make_trig_context", "t_cos", "t_sin", "trig_derived_rack",
    ),
    "euler": (
        "PairMap", "box_apply", "check_euler_formula",
        "check_exp_homomorphism", "check_hyperbolic_factorization",
        "cosh_map", "exp_map", "sinh_map",
    ),
    "ybe": (
        "SystemReport", "check_mixed", "check_qybe", "check_yb_system",
        "lift", "w_map", "z_map",
    ),
    "matseries": (
        "Mat2Q", "Rat", "SumResult", "brute_sum", "det", "mat2", "mat_mul",
        "mat_pow", "random_unimodular", "trace", "trace_product_sum",
    ),
    "census": ("EnumResult", "enumerate_racks", "enumerate_weak_racks"),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_HOME])


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"),
                       name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
