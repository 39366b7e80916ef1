"""The benchmark's checkers accept correct output and reject corrupted output.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import dataclasses
import json
import sys
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import pytest  # noqa: E402

import quiverbundles as qb  # noqa: E402
from quiverbundles import HomogPoly  # noqa: E402
from quiverbundles.generators import InstanceSpec, bundle_spec  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

FIXTURES = BENCH.parent / "tests" / "fixtures"


# ---------------------------------------------------------------------------
# cohomology


@pytest.fixture(scope="module")
def stable_case():
    e = next(qb.stable_bundles(1, seed=3, degree_bound=2))
    k = qb.build_complex(e)
    return e, k, qb.hypercoh_dims(k)


def test_cohomology_accepts_library_output(stable_case):
    e, k, report = stable_case
    assert checks.cohomology_problems(e, report) == []
    assert checks.window_problems(report, qb.hypercoh_dims(k, k.min_window + 3)) == []


def test_rr_count_matches_library_split_count():
    for j in range(8):
        e = qb.gen_bundle(bundle_spec(j, seed=5))
        assert checks.rr_euler(e) == qb.euler_char_rr(e) == 0


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda r: dataclasses.replace(r, h=tuple((d, n + (d == 0)) for d, n in r.h)),
        lambda r: dataclasses.replace(r, h=tuple((d, n + (d == 2)) for d, n in r.h)),
        lambda r: dataclasses.replace(r, euler=r.euler + 1),
        lambda r: dataclasses.replace(r, stabilized=False),
    ],
    ids=["h0_off_by_one", "h2_nonzero", "euler", "not_stabilized"],
)
def test_cohomology_rejects_corruption(stable_case, corrupt):
    e, _, report = stable_case
    assert checks.cohomology_problems(e, corrupt(report))


def test_window_check_rejects_changed_dims(stable_case):
    _, _, report = stable_case
    wider = dataclasses.replace(report, h=tuple((d, n + 1) for d, n in report.h))
    assert checks.window_problems(report, wider)


# ---------------------------------------------------------------------------
# verdicts


def _verdict_case(stable: bool):
    for j in range(64):
        e = qb.gen_bundle(bundle_spec(j, seed=7))
        if qb.is_stable_quasimap(e) is stable and (
            not stable or qb.base_locus(e).polynomial.degree > 0
        ):
            return e, workloads.Verdicts.run(e)
    raise AssertionError("no instance of the wanted kind")


@pytest.fixture(scope="module", params=[True, False], ids=["stable", "unstable"])
def verdict_case(request):
    return _verdict_case(request.param)


def test_verdicts_accept_library_output(verdict_case):
    e, out = verdict_case
    assert checks.verdict_problems(e, out) == []


def test_verdicts_accept_large_adhm_instance():
    e = qb.gen_bundle(InstanceSpec("adhm", (5,), framing=2, degree_bound=5, seed=0))
    assert checks.verdict_problems(e, workloads.Verdicts.run(e)) == []


def test_verdicts_reject_flipped_verdict(verdict_case):
    e, (stable, locus, factored, asym, hn) = verdict_case
    assert checks.verdict_problems(e, (not stable, locus, factored, asym, hn))


def test_verdicts_reject_wrong_base_locus():
    e, (stable, locus, factored, asym, hn) = _verdict_case(True)
    wrong = dataclasses.replace(locus, polynomial=HomogPoly.zero())
    assert checks.verdict_problems(e, (stable, wrong, "0", asym, hn))
    shifted = locus.polynomial * HomogPoly.of(1, (1, 1))
    wrong = dataclasses.replace(locus, polynomial=shifted)
    assert checks.verdict_problems(e, (stable, wrong, qb.format_factored(shifted), asym, hn))


def test_verdicts_reject_wrong_factored_display(verdict_case):
    e, (stable, locus, factored, asym, hn) = verdict_case
    assert checks.verdict_problems(e, (stable, locus, "2 * " + factored, asym, hn))


def test_verdicts_reject_disagreeing_routes(verdict_case):
    e, (stable, locus, factored, asym, hn) = verdict_case
    split = dataclasses.replace(asym, generically_generated=not asym.generically_generated)
    assert checks.verdict_problems(e, (stable, locus, factored, split, hn))


def test_verdicts_reject_failed_hn_bound_when_stable():
    e, (stable, locus, factored, asym, _) = _verdict_case(True)
    assert checks.verdict_problems(e, (stable, locus, factored, asym, False))


# ---------------------------------------------------------------------------
# cli


def _doc(name: str) -> tuple[str, dict]:
    path = FIXTURES / name
    return str(path), json.loads(path.read_text())


def _problems(argv, doc, result):
    code, stdout, stderr = result
    if code != checks.expected_exit(argv, doc):
        return ["exit"]
    stable = None
    if doc is not None and code == 0 and argv[0] != "validate":
        stable = checks.generically_stable(checks.fiber_data_of_doc(doc))
    return checks.cli_problems(argv, doc, code, stdout, stderr, stable)


@pytest.mark.parametrize("command", workloads.DOC_COMMANDS)
@pytest.mark.parametrize("name", ["bundle_adhm_stable.json", "bundle_adhm_unstable.json",
                                  "bundle_chain_stable.json", "rep_adhm_stable.json",
                                  "rep_adhm_unstable.json"])
def test_cli_accepts_fixture_output(command, name):
    path, doc = _doc(name)
    argv = [command, "--input", path]
    assert _problems(argv, doc, workloads.run_cli(argv)) == []


def test_cli_expects_exit_2_on_invalid_document():
    path, doc = _doc("broken_twist.json")
    assert checks.bundle_doc_violations(doc)
    for command in workloads.DOC_COMMANDS:
        assert checks.expected_exit([command, "--input", path], doc) == 2


def test_cli_rejects_wrong_exit_code():
    path, doc = _doc("bundle_adhm_stable.json")
    argv = ["stability", "--input", path]
    code, stdout, stderr = workloads.run_cli(argv)
    assert _problems(argv, doc, (2, stdout, stderr))


def test_cli_rejects_unsorted_or_reformatted_stdout():
    path, doc = _doc("bundle_adhm_stable.json")
    argv = ["asym-check", "--input", path]
    code, stdout, stderr = workloads.run_cli(argv)
    obj = json.loads(stdout)
    unsorted = json.dumps(dict(reversed(list(obj.items()))), indent=2) + "\n"
    assert _problems(argv, doc, (code, unsorted, stderr))
    assert _problems(argv, doc, (code, stdout.rstrip("\n"), stderr))


def test_cli_rejects_flipped_stability_verdict():
    path, doc = _doc("bundle_adhm_unstable.json")
    argv = ["stability", "--input", path]
    code, stdout, stderr = workloads.run_cli(argv)
    flipped = stdout.replace('"stable": false', '"stable": true')
    assert flipped != stdout
    assert _problems(argv, doc, (code, flipped, stderr))


def test_cli_rejects_broken_signature():
    path, doc = _doc("bundle_adhm_stable.json")
    argv = ["defcomplex", "--input", path]
    code, stdout, stderr = workloads.run_cli(argv)
    obj = json.loads(stdout)
    obj["h"]["0"] = str(int(obj["h"]["0"]) + 1)
    assert _problems(argv, doc, (code, json.dumps(obj, sort_keys=True, indent=2) + "\n", stderr))


def test_cli_rejects_wrong_threshold_and_slope():
    argv = ["delta-threshold", "--v0", "1", "--v1", "2", "--mu1", "0", "--N", "9"]
    code, stdout, stderr = workloads.run_cli(argv)
    assert _problems(argv, None, (code, stdout, stderr)) == []
    for wrong in ("18", "20"):
        assert _problems(argv, None, (code, stdout.replace('"19"', f'"{wrong}"'), stderr))
    argv = ["slope", "--v0", "1", "--v1", "2", "--d", "3", "--delta", "5"]
    code, stdout, stderr = workloads.run_cli(argv)
    assert _problems(argv, None, (code, stdout, stderr)) == []
    obj = json.loads(stdout)
    obj["mu_delta"] = str(Fraction(obj["mu_delta"]) + 1)
    assert _problems(argv, None, (code, json.dumps(obj, sort_keys=True, indent=2) + "\n", stderr))


def test_cli_rejects_gen_output_that_fails_validate():
    argv = ["gen", "--kind", "bundle", "--preset", "chain", "--dims", "1,1", "--seed", "9",
            "--out", "-"]
    code, stdout, stderr = workloads.run_cli(argv)
    assert _problems(argv, None, (code, stdout, stderr)) == []
    doc = json.loads(stdout)
    doc["twist"]["f-"] -= 1
    assert _problems(argv, None, (code, json.dumps(doc, sort_keys=True, indent=2) + "\n", stderr))


def test_byte_identity_rejects_one_changed_byte():
    path, _ = _doc("bundle_chain_stable.json")
    items = [(["hn-bound", "--input", path], None, False)]
    code, stdout, stderr = workloads.run_cli(items[0][0])
    assert run.byte_identity(items, [(code, stdout, stderr)], set(), seed=0) == []
    i = stdout.index("holds")
    changed = stdout[:i] + "H" + stdout[i + 1:]
    assert run.byte_identity(items, [(code, changed, stderr)], set(), seed=0)
