"""Exact toolkit for finite-dimensional graded Lie-Rinehart algebras.

An instance is a pair (L, A) of graded spaces over an exact field with
four sparse bilinear tables: the bracket on L, the commutative product
on A, the A-action on L and the anchor into derivations of A.  The
package verifies the defining axioms, partitions supports into
connection classes, builds the resulting orthogonal ideal
decompositions, checks tightness, pairs ideals across the two sides
and refines to gr-simple summands, with brute-force oracles backing
every fast path.
"""
from .catalog import CATALOG, build, catalog_names, compute_derivations
from .connections import (
    ConnectionPartition,
    Supports,
    connection_graph_dot,
    lambda_classes,
    lambda_connected,
    sigma_classes,
    sigma_connected,
    supports,
    validate_connection_path,
)
from .constructions import base_change, direct_sum, to_field
from .decompose import (
    DecompositionReport,
    PairingReport,
    TightnessReport,
    check_tight,
    decompose_A,
    decompose_L,
    pair_ideals,
)
from .errors import (
    CharacteristicError,
    DecompositionError,
    GuardError,
    InstanceFormatError,
    ScalarParseError,
    ToolkitError,
)
from .fields import RATIONALS, Field, parse_field_label, prime_field
from .files import dump_instance, instance_from_json, instance_to_json, load_instance, resolve_instance
from .groups import GroupSpec
from .linear import BilinearRule, GradedBasis, GradedSubspace
from .model import (
    AlgebraInstance,
    VerificationReport,
    ann_A,
    ann_L_of_A,
    center,
    is_graded_ideal_A,
    is_graded_ideal_L,
    ker_anchor,
    restrict_instance,
    verify_all,
)
from .oracle import (
    SearchReport,
    TemplateRecipe,
    all_subspaces,
    default_recipe_space,
    enumerate_connections,
    enumerate_graded_ideals_A,
    enumerate_graded_ideals_L,
    generate_instance,
    hypothesis_search,
)
from .simplicity import (
    FineReport,
    Hypotheses5,
    SimplicityVerdict,
    check_hypotheses5,
    fine_decompose,
    gr_simple_A,
    gr_simple_L,
    split_case_b,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraInstance",
    "BilinearRule",
    "CATALOG",
    "CharacteristicError",
    "ConnectionPartition",
    "DecompositionError",
    "DecompositionReport",
    "Field",
    "FineReport",
    "GradedBasis",
    "GradedSubspace",
    "GroupSpec",
    "GuardError",
    "Hypotheses5",
    "InstanceFormatError",
    "PairingReport",
    "RATIONALS",
    "ScalarParseError",
    "SearchReport",
    "SimplicityVerdict",
    "Supports",
    "TemplateRecipe",
    "TightnessReport",
    "ToolkitError",
    "VerificationReport",
    "all_subspaces",
    "ann_A",
    "ann_L_of_A",
    "base_change",
    "build",
    "catalog_names",
    "center",
    "check_hypotheses5",
    "check_tight",
    "compute_derivations",
    "connection_graph_dot",
    "decompose_A",
    "decompose_L",
    "default_recipe_space",
    "direct_sum",
    "dump_instance",
    "enumerate_connections",
    "enumerate_graded_ideals_A",
    "enumerate_graded_ideals_L",
    "fine_decompose",
    "generate_instance",
    "gr_simple_A",
    "gr_simple_L",
    "hypothesis_search",
    "instance_from_json",
    "instance_to_json",
    "is_graded_ideal_A",
    "is_graded_ideal_L",
    "ker_anchor",
    "lambda_classes",
    "lambda_connected",
    "load_instance",
    "pair_ideals",
    "parse_field_label",
    "prime_field",
    "resolve_instance",
    "restrict_instance",
    "sigma_classes",
    "sigma_connected",
    "split_case_b",
    "supports",
    "to_field",
    "validate_connection_path",
    "verify_all",
]
