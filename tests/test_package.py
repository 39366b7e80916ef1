"""The package namespace: the public names, each its home module's own
object, loaded on first access."""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import quiverbundles

SRC = str(Path(quiverbundles.__file__).resolve().parent.parent)

PUBLIC = [
    "Arrow", "AsymReport", "BaseLocusReport", "CohomologyReport", "DeformationComplex",
    "DeltaVerdict", "DimensionVector", "DocumentError", "DoubleQuiver", "FramedRep",
    "FramedStabilityVerdict", "HomogPoly", "HypothesisError", "InstanceDocument",
    "InstanceSpec", "InvariantError", "NumericalClass", "PolyMatrix", "Quiver",
    "ReducedTangentReport", "Slope", "SlopeTable", "SplitBundle", "SuiteReport", "TwistData",
    "TwistedQuiverBundle", "asymptotic_equivalence_check", "base_locus",
    "brute_force_framed_check", "build_complex", "bundle_spec", "bundle_to_doc",
    "check_delta_stability", "comparison_corpus", "delta_threshold", "double", "dumps",
    "euler_char_rr", "fiber_at", "format_factored", "gen_bundle", "gen_rep", "generic_rank",
    "hamiltonian_residual", "hn_quotient_bound_check", "hypercoh_dims", "instance_threshold",
    "instance_to_doc", "is_stable_framed", "is_stable_quasimap", "moment",
    "moment_residual_sheaf", "n_bound", "numerical_class", "oracle_fiber_consistency",
    "parse_document", "reduced_tangent", "rep_spec", "rep_to_doc", "residual_is_zero",
    "run_suite", "sample_points", "slopes", "stable_bundles", "subobject_family",
    "subsheaf_degree_bound", "symmetry_check", "threshold_inequality_holds", "validate",
]

MODULES = {
    "errors", "quivers", "linalg", "polynomials", "representations", "bundles", "stability",
    "complexes", "generators", "serialization",
}


def test_the_public_names_are_pinned():
    assert len(PUBLIC) == 69
    assert sorted(quiverbundles.__all__) == PUBLIC


def test_each_public_name_is_its_home_modules_object():
    listed = dir(quiverbundles)
    for home, names in quiverbundles._HOMES.items():
        module = importlib.import_module(f"quiverbundles.{home}")
        for name in names:
            assert getattr(quiverbundles, name) is getattr(module, name), name
            assert name in listed, name
    # the error types' old home re-exports them
    from quiverbundles import errors, quivers

    for name in ("HypothesisError", "InvariantError"):
        assert getattr(quiverbundles, name) is getattr(errors, name) is getattr(quivers, name)


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from quiverbundles import *", namespace)
    assert set(PUBLIC) <= set(namespace)
    assert all(namespace[name] is getattr(quiverbundles, name) for name in PUBLIC)


def test_unknown_names_raise_and_submodules_still_import():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        quiverbundles.no_such_name
    from quiverbundles import cli, complexes

    assert cli is sys.modules["quiverbundles.cli"]
    assert complexes is sys.modules["quiverbundles.complexes"]


FIRST_ACCESS = """
import sys
import quiverbundles as qb
before = sorted(m for m in sys.modules if m.startswith("quiverbundles."))
bound = sorted(set(qb.__all__) & set(vars(qb)))
qb.slopes
print(before, bound)
print(sorted(k for k in vars(qb) if not k.startswith("_")))
"""


def test_the_first_access_binds_every_public_name():
    proc = subprocess.run(
        [sys.executable, "-c", FIRST_ACCESS], env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "[] []"
    # the namespace an eager import gave: the public names and the modules
    # they live in
    assert lines[1] == str(sorted({*PUBLIC, *MODULES}))
