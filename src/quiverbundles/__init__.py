"""Exact-arithmetic toolkit for framed double quivers: flat moment-map
representations, twisted bundle quasimaps on the projective line, slope
stability in all its readings, and the deformation complex.

Everything is rational and deterministic; no floats, no randomness
outside seeded generators.

Importing the package loads no submodule.  The first access to any public
name loads the modules of the table below and binds every public name here,
so each command loads only what it runs (PEP 562).
"""

__version__ = "0.1.0"

# the public names by home module
_HOMES = {
    "quivers": (
        "Arrow", "DimensionVector", "DoubleQuiver", "HypothesisError", "InvariantError",
        "Quiver", "double",
    ),
    "polynomials": ("HomogPoly", "PolyMatrix", "format_factored", "generic_rank"),
    "representations": (
        "FramedRep", "FramedStabilityVerdict", "ReducedTangentReport",
        "brute_force_framed_check", "hamiltonian_residual", "is_stable_framed", "moment",
        "reduced_tangent",
    ),
    "bundles": (
        "BaseLocusReport", "SplitBundle", "TwistData", "TwistedQuiverBundle", "base_locus",
        "fiber_at", "is_stable_quasimap", "moment_residual_sheaf", "residual_is_zero",
        "validate",
    ),
    "stability": (
        "AsymReport", "DeltaVerdict", "NumericalClass", "Slope", "SlopeTable",
        "asymptotic_equivalence_check", "check_delta_stability", "delta_threshold",
        "hn_quotient_bound_check", "instance_threshold", "n_bound", "numerical_class",
        "slopes", "subobject_family", "subsheaf_degree_bound", "threshold_inequality_holds",
    ),
    "complexes": (
        "CohomologyReport", "DeformationComplex", "build_complex", "euler_char_rr",
        "hypercoh_dims", "symmetry_check",
    ),
    "generators": (
        "InstanceSpec", "SuiteReport", "bundle_spec", "comparison_corpus", "gen_bundle",
        "gen_rep", "oracle_fiber_consistency", "rep_spec", "run_suite", "sample_points",
        "stable_bundles",
    ),
    "serialization": (
        "DocumentError", "InstanceDocument", "bundle_to_doc", "dumps", "instance_to_doc",
        "parse_document", "rep_to_doc",
    ),
}

__all__ = [name for names in _HOMES.values() for name in names]


def __getattr__(name: str):
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    for home, names in _HOMES.items():
        module = import_module(f".{home}", __name__)
        globals().update((n, getattr(module, n)) for n in names)
    return globals()[name]


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
