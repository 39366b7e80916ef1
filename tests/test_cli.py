"""End-to-end CLI checks on the fixture corpus: exit codes, JSON shape,
exact frozen values, and byte determinism."""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

from quiverbundles import bundles, cli, complexes, polynomials
from quiverbundles.bundles import base_locus
from quiverbundles.cli import main
from quiverbundles.generators import comparison_corpus
from quiverbundles.polynomials import format_factored
from quiverbundles.serialization import parse_document, schema_errors

FIXTURES = Path(__file__).parent / "fixtures"

REP_STABLE = str(FIXTURES / "rep_adhm_stable.json")
REP_UNSTABLE = str(FIXTURES / "rep_adhm_unstable.json")
BUNDLE_STABLE = str(FIXTURES / "bundle_adhm_stable.json")
BUNDLE_UNSTABLE = str(FIXTURES / "bundle_adhm_unstable.json")
CHAIN_STABLE = str(FIXTURES / "bundle_chain_stable.json")
BROKEN_TWIST = str(FIXTURES / "broken_twist.json")


def run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def run_json(argv: list[str]) -> tuple[int, dict]:
    code, out, _ = run(argv)
    return code, json.loads(out)


def test_validate_accepts_fixtures():
    for path in (REP_STABLE, BUNDLE_STABLE, BUNDLE_UNSTABLE, CHAIN_STABLE):
        code, payload = run_json(["validate", "--input", path])
        assert code == 0
        assert payload == {"valid": True, "violations": []}


def test_validate_broken_twist_exits_2_and_names_arrow():
    code, out, err = run(["validate", "--input", BROKEN_TWIST])
    assert code == 2
    payload = json.loads(out)
    assert payload["valid"] is False
    assert any("frame" in v for v in payload["violations"])
    assert "frame" in err


def test_moment_reports_zero_residual():
    for path in (REP_STABLE, REP_UNSTABLE, BUNDLE_STABLE, CHAIN_STABLE):
        code, payload = run_json(["moment", "--input", path])
        assert code == 0
        assert payload["zero"] is True
        assert set(payload["residual"]) == ({"1"} if "chain" not in path else {"1", "2"})


def test_stability_stable_rep():
    code, payload = run_json(["stability", "--input", REP_STABLE])
    assert code == 0
    assert payload == {"stable": True, "witness": None}


def test_stability_unstable_rep_names_witness_dims():
    code, payload = run_json(["stability", "--input", REP_UNSTABLE])
    assert code == 0
    assert payload["stable"] is False
    assert set(payload["witness"]["dims"]) == {"0", "1"}
    code, _, _ = run(["stability", "--input", REP_UNSTABLE, "--strict"])
    assert code == 1


def test_stability_bundle_with_delta_verdict():
    code, payload = run_json(["stability", "--input", BUNDLE_STABLE, "--delta", "50"])
    assert code == 0
    assert payload["stable"] is True
    verdict = payload["delta_verdict"]
    assert verdict["delta"] == "50"
    assert verdict["refutes_stability"] is False
    assert verdict["witness"] is None
    code, payload = run_json(["stability", "--input", BUNDLE_UNSTABLE])
    assert code == 0 and payload["stable"] is False
    code, _, _ = run(["stability", "--input", BUNDLE_UNSTABLE, "--strict"])
    assert code == 1


def test_base_locus_documents_failure_polynomial():
    code, payload = run_json(["base-locus", "--input", BUNDLE_STABLE])
    assert code == 0
    assert payload["stable"] is True
    assert payload["polynomial"] != "0"  # stable: base locus is a finite set
    code, payload = run_json(["base-locus", "--input", BUNDLE_UNSTABLE])
    assert payload["stable"] is False and payload["polynomial"] == "0"
    code, _, _ = run(["base-locus", "--input", BUNDLE_UNSTABLE, "--strict"])
    assert code == 1


def _large_coefficient_document(tmp_path: Path) -> Path:
    # one summand O(2) framed by (10^14 + 31) s^2 + t^2, every other arrow
    # zero: a valid zero-residual document whose coefficient must not make
    # the computation or its display take time exponential in its bits
    doc = json.loads(Path(BUNDLE_STABLE).read_text())
    del doc["meta"]
    doc["bundles"] = {"0": [0], "1": [2]}
    doc["data"] = {
        "frame+": [[["100000000000031", "0", "1"]]],
        "frame-": [[None]],
        "loop+": [[None]],
        "loop-": [[None]],
    }
    path = tmp_path / "large_coefficient.json"
    path.write_text(json.dumps(doc))
    return path


def test_base_locus_on_large_coefficients(tmp_path):
    path = _large_coefficient_document(tmp_path)
    assert run(["validate", "--input", str(path)])[0] == 0
    assert json.loads(run(["moment", "--input", str(path)])[1])["zero"] is True
    start = time.perf_counter()
    code, out, _ = run(["base-locus", "--input", str(path)])
    elapsed = time.perf_counter() - start
    assert code == 0
    assert out == (
        "{\n"
        '  "polynomial": "(100000000000031*s^2 + t^2)",\n'
        '  "stable": true,\n'
        '  "vertex_polynomials": {\n'
        '    "1": "(100000000000031*s^2 + t^2)"\n'
        "  },\n"
        '  "vertex_ranks": {\n'
        '    "1": "1"\n'
        "  }\n"
        "}\n"
    )
    assert elapsed < 10.0, f"{elapsed:.1f} s"


def test_base_locus_factors_each_distinct_form_once(tmp_path, monkeypatch):
    calls = []

    def counting(p):
        calls.append(p)
        return format_factored(p)

    monkeypatch.setattr(polynomials, "format_factored", counting)
    for path in (CHAIN_STABLE, BUNDLE_STABLE, str(_large_coefficient_document(tmp_path))):
        calls.clear()
        assert run(["base-locus", "--input", path])[0] == 0
        report = base_locus(parse_document(json.loads(Path(path).read_text())).bundle)
        forms = {report.polynomial, *(p for _, p in report.vertex_polynomials)}
        assert sorted(map(str, calls)) == sorted(map(str, forms)), path
    # one ordinary vertex: the vertex form is the total form
    assert len(calls) == 1


def test_slope_from_flags_matches_table():
    code, payload = run_json(
        ["slope", "--v0", "1", "--v1", "2", "--d", "3", "--delta", "5"]
    )
    assert code == 0
    assert payload["class"] == {"v0": "1", "v1": "2", "d": "3"}
    assert payload["mu_delta"] == "4"          # (3 + 5*1) / 2
    assert payload["mu_st"] == "1"             # 3 / (1 + 2)
    assert payload["mu1"] == "3/2"             # 3 / 2
    assert payload["mu2_proof"] == "5/2"       # 5*1 / 2
    assert payload["mu2_Z"] == "5"             # 2*5*1 / 2
    code, _, err = run(["slope", "--v0", "1", "--v1", "2", "--d", "3"])
    assert code == 2 and "--delta" in err


def test_slope_from_instance_uses_threshold_default():
    code, payload = run_json(["slope", "--input", BUNDLE_STABLE])
    assert code == 0
    frozen = run_json(["delta-threshold", "--input", BUNDLE_STABLE])[1]
    assert payload["delta"] == frozen["delta0"]
    code, _, err = run(["slope", "--input", BUNDLE_STABLE, "--v0", "1"])
    assert code == 2 and "not both" in err


def test_delta_threshold_frozen_value():
    code, payload = run_json(
        ["delta-threshold", "--v0", "1", "--v1", "2", "--mu1", "0", "--N", "9"]
    )
    assert code == 0
    assert payload == {"delta0": "19"}


def test_delta_threshold_from_instance():
    code, payload = run_json(["delta-threshold", "--input", BUNDLE_STABLE])
    assert code == 0
    assert set(payload) == {"delta0", "N", "mu1"}
    assert int(payload["N"]) >= 0


def test_asym_check_agrees_on_fixtures():
    for path in (BUNDLE_STABLE, BUNDLE_UNSTABLE, CHAIN_STABLE):
        code, payload = run_json(["asym-check", "--input", path])
        assert code == 0
        assert payload["agree"] is True
        assert payload["informative_only"] is False
        code, _, _ = run(["asym-check", "--input", path, "--strict"])
        assert code == 0


def test_hn_bound_holds_on_stable_fixtures():
    for path in (BUNDLE_STABLE, CHAIN_STABLE):
        code, payload = run_json(["hn-bound", "--input", path])
        assert code == 0
        assert payload["holds"] is True


def test_defcomplex_symmetry_fields():
    code, payload = run_json(["defcomplex", "--input", BUNDLE_STABLE])
    assert code == 0
    assert payload["h"]["-1"] == "0" and payload["h"]["2"] == "0"
    assert payload["h"]["0"] == payload["h"]["1"]
    assert payload["euler"] == "0" == payload["euler_rr"]
    assert payload["stabilized"] is True
    wider = run_json(
        ["defcomplex", "--input", BUNDLE_STABLE, "--window", payload["window"]]
    )[1]
    assert wider["h"] == payload["h"]


def test_gen_writes_parseable_deterministic_documents(tmp_path):
    args = ["gen", "--kind", "bundle", "--preset", "adhm", "--dims", "2",
            "--seed", "1", "--out", "-"]
    first = run(args)
    second = run(args)
    assert first == second and first[0] == 0
    doc = json.loads(first[1])
    assert doc["kind"] == "bundle" and doc["meta"] == {"preset": "adhm", "seed": 1}
    target = tmp_path / "inst.json"
    code, payload = run_json(
        ["gen", "--kind", "rep", "--preset", "chain", "--dims", "1,1",
         "--seed", "2", "--level", "1", "--out", str(target)]
    )
    assert code == 0 and payload == {"written": str(target)}
    written = json.loads(target.read_text())
    assert written["kind"] == "rep" and written["lambda"] == {"1": "1", "2": "1"}
    code, verdict = run_json(["validate", "--input", str(target)])
    assert code == 0 and verdict["valid"] is True


def test_gen_rep_below_the_framing_at_a_nonzero_level(tmp_path):
    # framing 1 < dimension 2 at level -1/2: a Calogero-Moser point
    target = tmp_path / "cm.json"
    argv = ["gen", "--kind", "rep", "--preset", "adhm", "--dims", "2", "--level", "-1/2"]
    code, out, err = run(argv + ["--out", "-"])
    assert (code, err) == (0, "")
    assert run(argv + ["--out", str(target)])[0] == 0
    assert json.loads(target.read_text()) == json.loads(out)
    assert json.loads(out)["lambda"] == {"1": "-1/2"}
    code, verdict = run_json(["validate", "--input", str(target)])
    assert code == 0 and verdict["valid"] is True
    code, verdict = run_json(["stability", "--input", str(target)])
    assert code == 0 and verdict["stable"] is True


def test_suite_smoke_and_unknown_name():
    code, payload = run_json(["suite", "--name", "moment-zero", "--count", "4"])
    assert code == 0
    assert payload == {
        "failures": [], "instances": "4", "passed": True, "suite": "moment-zero"
    }
    code, _, err = run(["suite", "--name", "bogus"])
    assert code == 2 and "bogus" in err


def test_suite_refuses_a_negative_count():
    # a negative count would run no instance and pass, even under --strict
    for name in ("hamiltonian", "closure-brute", "bogus"):
        code, out, err = run(["suite", "--name", name, "--count", "-1", "--strict"])
        assert (code, out) == (2, ""), name
        assert err == "error: suite count must be nonnegative, got -1\n", name
    # zero runs no instance, except closure-brute, which runs its whole corpus
    code, payload = run_json(["suite", "--name", "hamiltonian", "--count", "0", "--strict"])
    assert code == 0 and payload["instances"] == "0" and payload["passed"] is True
    code, payload = run_json(["suite", "--name", "closure-brute", "--count", "0", "--strict"])
    assert code == 0 and payload["instances"] == str(sum(1 for _ in comparison_corpus()))


def test_schema_flag_prints_shipped_schema():
    code, out, _ = run(["--schema"])
    assert code == 0
    schema = json.loads(out)
    assert schema["properties"]["version"]["const"] == 1
    shipped = (
        Path(__file__).parents[1]
        / "src" / "quiverbundles" / "schema" / "instance-v1.json"
    ).read_text()
    assert out == shipped
    code, _, err = run([])
    assert code == 2 and "usage" in err


def test_input_problems_exit_2():
    code, _, err = run(["moment", "--input", "/no/such/file.json"])
    assert code == 2 and err.startswith("error:")
    code, _, err = run(["asym-check", "--input", REP_STABLE])
    assert code == 2 and "bundle" in err
    code, _, _ = run(["not-a-command"])
    assert code == 2


def test_invalid_bundle_documents_exit_2_without_traceback(tmp_path):
    doc = json.loads(Path(BUNDLE_STABLE).read_text())
    doc["data"]["frame+"][1][0] = ["2", "1"]
    wrong_degree = tmp_path / "wrong_degree.json"
    wrong_degree.write_text(json.dumps(doc))
    assert run(["validate", "--input", str(wrong_degree)])[0] == 2
    for path in (BROKEN_TWIST, str(wrong_degree)):
        for argv in (
            ["moment"],
            ["stability"],
            ["stability", "--delta", "40"],
            ["base-locus"],
            ["slope"],
            ["delta-threshold"],
            ["asym-check"],
            ["hn-bound"],
            ["defcomplex"],
        ):
            code, out, err = run(argv + ["--input", path])
            assert (code, out) == (2, ""), argv
            assert err.startswith("error: ") and "Traceback" not in err, argv


def test_a_rational_past_the_int_string_limit_exits_2_with_its_pointer(tmp_path):
    # the schema pattern admits any length; int() refuses more than
    # sys.get_int_max_str_digits() digits
    digits = sys.get_int_max_str_digits() + 700
    bundle = json.loads(Path(BUNDLE_STABLE).read_text())
    bundle["data"]["frame+"][0][0][1] = "1" * digits
    rep = json.loads(Path(REP_STABLE).read_text())
    rep["data"]["loop+"][1][0] = "1/" + "3" * digits
    level = json.loads(Path(REP_STABLE).read_text())
    level["lambda"] = {"1": "-" + "7" * digits}
    for name, doc, pointer in (
        ("coefficient", bundle, "/data/frame+/0/0/1"),
        ("scalar", rep, "/data/loop+/1/0"),
        ("level", level, "/lambda/1"),
    ):
        assert schema_errors(doc) == [], name
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        for command in ("validate", "stability"):
            code, out, err = run([command, "--input", str(path)])
            assert (code, out) == (2, ""), (name, command)
            assert err.startswith(f"error: {pointer}: "), (name, command, err[:80])
            assert "Traceback" not in err


def test_output_is_byte_deterministic_across_runs():
    calls = [
        ["validate", "--input", CHAIN_STABLE],
        ["moment", "--input", REP_STABLE],
        ["stability", "--input", BUNDLE_STABLE, "--delta", "40"],
        ["base-locus", "--input", BUNDLE_UNSTABLE],
        ["slope", "--input", CHAIN_STABLE],
        ["delta-threshold", "--input", CHAIN_STABLE],
        ["asym-check", "--input", BUNDLE_STABLE],
        ["hn-bound", "--input", CHAIN_STABLE],
        ["defcomplex", "--input", CHAIN_STABLE],
        ["suite", "--name", "hamiltonian", "--count", "3"],
    ]
    for argv in calls:
        assert run(argv) == run(argv)


def test_invariant_failure_exits_3(monkeypatch):
    # a degree check that fails on a good document is a library defect:
    # exit 3, one error line, nothing on stdout
    monkeypatch.setattr(complexes, "CANONICAL_DEGREE", -3)
    code, out, err = run(["defcomplex", "--input", BUNDLE_STABLE])
    assert (code, out) == (3, "")
    assert err == "error: differential degree mismatch\n"


EXPECTED = FIXTURES / "expected"
PINNED = ("stability", "base-locus", "asym-check", "hn-bound", "defcomplex")


def test_verdict_stdout_matches_pinned_files():
    # one <fixture>.<subcommand>.out per valid fixture, exit codes alongside;
    # defcomplex-window is defcomplex --window <min_window + 3>, min_window
    # read from the pinned defcomplex output (0 where that output is empty)
    codes = json.loads((EXPECTED / "exit_codes.json").read_text())
    seen = set()
    for path in sorted(FIXTURES.glob("*.json")):
        if run(["validate", "--input", str(path)])[0] != 0:
            continue
        plain = (EXPECTED / f"{path.stem}.defcomplex.out").read_text()
        window = str(int(json.loads(plain)["min_window"]) + 3 if plain else 3)
        invocations = [(command, [command]) for command in PINNED]
        invocations.append(("defcomplex-window", ["defcomplex", "--window", window]))
        for label, argv in invocations:
            name = f"{path.stem}.{label}"
            code, out, _ = run(argv + ["--input", str(path)])
            assert out == (EXPECTED / f"{name}.out").read_text(), name
            assert code == codes[name], name
            seen.add(name)
    assert seen == set(codes)


def test_slope_arithmetic_matches_pinned_outputs():
    # slope and delta-threshold on every bundle fixture and on flag classes
    # (v1 = 0 and 1, negative and fractional d, mu1 and delta), and
    # stability, asym-check and hn-bound at delta in {1/3, 1, delta0 - 1,
    # delta0}; a record with stderr null ends in an argparse usage line,
    # whose wrapping follows the terminal width
    records = json.loads((EXPECTED / "slope_arithmetic.json").read_text())
    for record in records:
        argv = [str(FIXTURES / a) if a.endswith(".json") else a for a in record["argv"]]
        code, out, err = run(argv)
        name = " ".join(record["argv"])
        assert (code, out) == (record["code"], record["stdout"]), name
        if record["stderr"] is not None:
            assert err == record["stderr"], name
    assert len(records) == 77


def test_defcomplex_huge_window_answers_quickly():
    # the window is validated and echoed; no computation grows with it
    start = time.perf_counter()
    code, out, _ = run(["defcomplex", "--input", BUNDLE_STABLE, "--window", "1000000000"])
    elapsed = time.perf_counter() - start
    assert code == 0
    assert '"window": "1000000000"' in out
    assert elapsed < 5.0, f"{elapsed:.1f} s"


def test_negative_rational_flag_values_after_a_space():
    cases = [
        (["delta-threshold", "--v0", "1", "--v1", "2", "--N", "3"], "--mu1", "-5/2"),
        (["slope", "--v0", "1", "--v1", "2", "--d", "3"], "--delta", "-7/3"),
        (["stability", "--input", BUNDLE_STABLE], "--delta", "-1/2"),
        (["asym-check", "--input", BUNDLE_STABLE], "--delta", "-3/2"),
        (["hn-bound", "--input", BUNDLE_STABLE], "--delta", "-3/2"),
        (
            ["gen", "--kind", "rep", "--preset", "adhm", "--dims", "2", "--framing", "2",
             "--out", "-"],
            "--level",
            "-1/2",
        ),
    ]
    codes = []
    for argv, flag, value in cases:
        code, out, err = run(argv + [flag, value])
        assert "expected one argument" not in err
        assert (code, out) == run(argv + [f"{flag}={value}"])[:2]
        codes.append(code)
    # a negative delta is refused by the slope and stability routines
    assert codes == [0, 2, 2, 2, 2, 0]
    # abbreviated option names take the value after a space too
    shorts = ("--mu", "--del", "--del", "--del", "--del", "--lev")
    for (argv, flag, value), short in zip(cases, shorts):
        code, out, err = run(argv + [short, value])
        assert "expected one argument" not in err
        assert (code, out) == run(argv + [f"{flag}={value}"])[:2]
    assert json.loads(run(cases[0][0] + ["--mu1", "-5/2"])[1]) == {"delta0": "12"}
    # a flag followed by another option still lacks its value
    code, _, err = run(["slope", "--v0", "1", "--v1", "2", "--d", "3", "--delta", "--v0"])
    assert code == 2 and "expected one argument" in err


SRC = str(Path(cli.__file__).resolve().parent.parent)


def _fresh(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
    )


def test_one_parser_serves_every_invocation():
    # the fixture x subcommand matrix twice, interleaved with invocations
    # that argparse ends early; the one parser tree must carry no state
    matrix = [
        [command, "--input", str(path)]
        for path in sorted(FIXTURES.glob("*.json"))
        for command in ("validate", "moment", "stability", "base-locus", "slope",
                        "delta-threshold", "asym-check", "hn-bound", "defcomplex")
    ]
    errors = [
        [],
        ["not-a-command"],
        ["stability"],
        ["stability", "--input", BUNDLE_STABLE, "--delta=x"],
        ["--help"],
    ]

    def sweep() -> list[tuple[int, str, str]]:
        out = []
        for i, argv in enumerate(matrix):
            out.append(run(argv))
            out.append(run(errors[i % len(errors)]))
        return out

    first = sweep()
    assert first == sweep()
    assert [code for code, _, _ in first[1:10:2]] == [2, 2, 2, 2, 0]
    assert cli._build_parser.cache_info().misses == 1


def test_fresh_process_prints_what_the_in_process_call_prints():
    for argv in (
        ["validate", "--input", CHAIN_STABLE],
        ["moment", "--input", REP_STABLE],
        ["stability", "--input", BUNDLE_STABLE, "--delta", "40"],
        ["base-locus", "--input", BUNDLE_UNSTABLE],
        ["slope", "--v0", "1", "--v1", "2", "--d", "3", "--delta", "-7/3"],
        ["delta-threshold", "--v0", "1", "--v1", "2", "--mu1", "0", "--N", "9"],
        ["asym-check", "--input", BUNDLE_STABLE],
        ["hn-bound", "--input", CHAIN_STABLE],
        ["defcomplex", "--input", CHAIN_STABLE],
        ["gen", "--kind", "bundle", "--preset", "chain", "--dims", "1,1", "--out", "-"],
        ["suite", "--name", "moment-zero", "--count", "3"],
    ):
        proc = _fresh(["-m", "quiverbundles.cli", *argv])
        assert (proc.returncode, proc.stdout) == run(argv)[:2], argv


def _imported(args: list[str]) -> set[str]:
    """The modules a fresh process imports, read from `-X importtime`."""
    proc = _fresh(["-X", "importtime", *args])
    assert proc.returncode == 0, proc.stderr
    return {line.split("|")[-1].strip() for line in proc.stderr.splitlines()}


def test_gen_to_a_path_that_cannot_be_written_exits_2(tmp_path):
    for target in (tmp_path / "missing" / "x.json", tmp_path):
        proc = _fresh(["-m", "quiverbundles.cli", "gen", "--kind", "bundle", "--preset", "adhm",
                       "--dims", "2", "--out", str(target)])
        assert (proc.returncode, proc.stdout) == (2, ""), target
        assert proc.stderr.startswith(f"error: cannot write {target}: "), proc.stderr
        assert "Traceback" not in proc.stderr


def test_the_parser_loads_on_first_use_and_jsonschema_never():
    # and each invocation loads only the library modules its handler runs
    probe = "import quiverbundles.cli as c; print(c._build_parser.cache_info().misses)"
    assert _fresh(["-c", probe]).stdout == "0\n"
    loaded = _imported(["-c", "import quiverbundles"])
    assert "jsonschema" not in loaded
    assert {m for m in loaded if m.startswith("quiverbundles.")} == set()
    by_flags = {"quivers", "linalg", "polynomials", "representations", "bundles", "complexes",
                "generators", "serialization"}
    for argv, unused in (
        (["delta-threshold", "--v0", "1", "--v1", "2", "--mu1", "0", "--N", "9"], by_flags),
        (["slope", "--v0", "1", "--v1", "2", "--d", "3", "--delta", "5"], by_flags),
        (["validate", "--input", CHAIN_STABLE], {"stability", "complexes", "generators"}),
        (["moment", "--input", REP_STABLE], {"stability", "complexes", "generators"}),
        (["stability", "--input", BUNDLE_STABLE], {"complexes", "generators"}),
        (["base-locus", "--input", BUNDLE_UNSTABLE], {"stability", "complexes", "generators"}),
        (["slope", "--input", CHAIN_STABLE], {"complexes", "generators"}),
        (["delta-threshold", "--input", CHAIN_STABLE], {"complexes", "generators"}),
        (["asym-check", "--input", BUNDLE_STABLE], {"complexes", "generators"}),
        (["hn-bound", "--input", CHAIN_STABLE], {"complexes", "generators"}),
        (["defcomplex", "--input", CHAIN_STABLE], {"stability", "generators"}),
        (["gen", "--kind", "bundle", "--preset", "chain", "--dims", "1,1", "--out", "-"],
         {"stability", "complexes"}),
        (["suite", "--name", "moment-zero", "--count", "3"], set()),
        (["--schema"], {"quivers", "linalg", "polynomials", "representations", "bundles",
                        "stability", "complexes", "generators", "serialization"}),
    ):
        loaded = _imported(["-m", "quiverbundles.cli", *argv])
        assert "jsonschema" not in loaded, argv
        assert {f"quiverbundles.{m}" for m in unused} & loaded == set(), argv


DOCUMENT_COMMANDS = (
    "validate", "moment", "stability", "base-locus", "slope", "delta-threshold",
    "asym-check", "hn-bound", "defcomplex",
)

WITHOUT_JSONSCHEMA = """
import contextlib, io, json, sys
sys.modules["jsonschema"] = None
from quiverbundles.cli import main
from quiverbundles.generators import comparison_corpus
out = []
for argv in json.loads(sys.argv[1]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        out.append([main(argv), buf.getvalue()])
print(json.dumps(out))
"""


def test_document_subcommands_need_no_jsonschema():
    matrix = [
        [command, "--input", str(path)]
        for path in sorted(FIXTURES.glob("*.json"))
        for command in DOCUMENT_COMMANDS
    ]
    proc = _fresh(["-c", WITHOUT_JSONSCHEMA, json.dumps(matrix)])
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [list(run(argv)[:2]) for argv in matrix]


def _as_floats(node: object) -> object:
    """node with every integer (bools aside) written as an integral float"""
    if isinstance(node, dict):
        return {k: _as_floats(v) for k, v in node.items()}
    if isinstance(node, list):
        return [_as_floats(v) for v in node]
    return float(node) if type(node) is int else node


def test_integral_floats_read_as_integers(tmp_path):
    # Draft 2020-12 takes 1.0 for an integer: such a document is
    # schema-valid and reads like the one with integers
    for path in sorted(FIXTURES.glob("*.json")):
        floats = tmp_path / path.name
        floats.write_text(json.dumps(_as_floats(json.loads(path.read_text()))))
        assert ".0" in floats.read_text()
        for command in ("validate", "stability", "base-locus", "asym-check", "hn-bound",
                        "defcomplex"):
            want = run([command, "--input", str(path)])[:2]
            assert run([command, "--input", str(floats)])[:2] == want, (path.name, command)


def _leaves(node: object) -> list[tuple[object, object]]:
    """(container, key) of every value in node that is no array or object"""
    out = []
    for key, value in node.items() if isinstance(node, dict) else enumerate(node):
        out += _leaves(value) if isinstance(value, (dict, list)) else [(node, key)]
    return out


# small integers, integral floats, "p/q" strings, null and short
# coefficient lists
MUTATION_VALUES = (
    -1, 0, 1, 2, 3, -1.0, 0.0, 1.0, 2.0, "0", "1", "-1", "1/2", "-3/2", None,
    ["1"], ["0", "1"], ["1", "0", "2"],
)


def test_schema_valid_mutations_never_end_in_a_traceback(tmp_path):
    fixtures = [json.loads(p.read_text()) for p in sorted(FIXTURES.glob("*.json"))]
    rng = random.Random(16)
    corpus = []
    while len(corpus) < 300:
        doc = copy.deepcopy(rng.choice(fixtures))
        for _ in range(rng.randint(1, 3)):
            # a top-level field first, so that the matrix entries, which
            # outnumber every other leaf, do not take nearly every mutation
            top = rng.choice(list(doc))
            leaves = _leaves(doc[top]) if isinstance(doc[top], (dict, list)) else []
            parent, key = rng.choice(leaves or [(doc, top)])
            parent[key] = copy.deepcopy(rng.choice(MUTATION_VALUES))
        if not schema_errors(doc):
            corpus.append(doc)
    start = time.perf_counter()
    path = tmp_path / "mutation.json"
    computed = 0
    for doc in corpus:
        path.write_text(json.dumps(doc))
        for command in DOCUMENT_COMMANDS:
            code, _, err = run([command, "--input", str(path)])
            assert code in (0, 1, 2) and "Traceback" not in err, (command, doc)
            computed += code == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"{elapsed:.1f} s"
    # not only input errors: many mutations reach a computed answer
    assert computed > 300


# Vertex 2 has rank 0, so phi_e- phi_e+ (2 x 0 by 0 x 2) is the 2 x 2 zero
# matrix and the residual at vertex 1 is phi_a+ phi_a-, which is nonzero.
ZERO_RANK_BUNDLE = {
    "version": 1,
    "kind": "bundle",
    "quiver": {
        "vertices": [{"name": "0", "framing": True}, {"name": "1"}, {"name": "2"}, {"name": "3"}],
        "arrows": [
            {"name": "a", "tail": "3", "head": "1"},
            {"name": "frame", "tail": "0", "head": "1"},
            {"name": "e", "tail": "1", "head": "2"},
        ],
    },
    "bundles": {"0": [0], "1": [2, 0], "2": [], "3": [2]},
    "twist": {"a+": 0, "a-": -2, "frame+": 0, "frame-": -2, "e+": 0, "e-": -2},
    "data": {
        "a+": [[["1"]], [None]],
        "a-": [[None, ["1"]]],
        "frame+": [[["1", "0", "0"]], [["1"]]],
        "frame-": [[None, None]],
        "e+": [],
        "e-": [[], []],
    },
}

# The chain 0 -> 1 -> 2 with vertex 2 of dimension zero.
ZERO_RANK_REP = {
    "version": 1,
    "kind": "rep",
    "quiver": {
        "vertices": [{"name": "0", "framing": True}, {"name": "1"}, {"name": "2"}],
        "arrows": [{"name": "f", "tail": "0", "head": "1"}, {"name": "e", "tail": "1", "head": "2"}],
    },
    "dims": {"0": 1, "1": 1, "2": 0},
    "data": {"f+": [["1"]], "f-": [["0"]], "e+": [], "e-": [[]]},
}

DOCUMENT_SUBCOMMANDS = (
    "validate",
    "moment",
    "stability",
    "base-locus",
    "slope",
    "delta-threshold",
    "asym-check",
    "hn-bound",
    "defcomplex",
)


def _write(tmp_path: Path, doc: dict, name: str = "doc.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_a_product_through_a_zero_rank_vertex_hides_no_residual(tmp_path):
    path = _write(tmp_path, ZERO_RANK_BUNDLE)
    assert run(["validate", "--input", path])[0] == 0
    code, payload = run_json(["moment", "--input", path])
    assert code == 0
    assert payload["zero"] is False
    assert payload["residual"]["1"] == [[None, ["1"]], [None, None]]
    for sub in ("stability", "base-locus", "defcomplex"):
        code, out, err = run([sub, "--input", path])
        assert (code, out) == (2, ""), sub
        assert "moment residual nonzero" in err


def test_every_verdict_refuses_data_off_the_moment_relation(tmp_path):
    # ZERO_RANK_BUNDLE without vertex 2 and arrow e: the residual at vertex 1
    # is phi_a+ phi_a- = [[0, 1], [0, 0]] with nothing to hide it
    doc = copy.deepcopy(ZERO_RANK_BUNDLE)
    doc["quiver"]["vertices"] = [v for v in doc["quiver"]["vertices"] if v["name"] != "2"]
    doc["quiver"]["arrows"] = [a for a in doc["quiver"]["arrows"] if a["name"] != "e"]
    del doc["bundles"]["2"]
    for name in ("e+", "e-"):
        del doc["twist"][name], doc["data"][name]
    path = _write(tmp_path, doc)
    assert run(["validate", "--input", path])[0] == 0
    code, payload = run_json(["moment", "--input", path])
    assert (code, payload["zero"]) == (0, False)
    assert payload["residual"]["1"] == [[None, ["1"]], [None, None]]
    for sub in ("stability", "base-locus", "asym-check", "hn-bound", "defcomplex"):
        code, out, err = run([sub, "--input", path])
        assert (code, out) == (2, ""), sub
        assert "moment residual nonzero" in err, sub


def test_moment_computes_the_bundle_residual_once(tmp_path, monkeypatch):
    # `zero` is read off the residual that is printed
    calls = []
    real = bundles._residual
    monkeypatch.setattr(bundles, "_residual", lambda *a: calls.append(1) or real(*a))
    for path, zero in ((CHAIN_STABLE, True), (_write(tmp_path, ZERO_RANK_BUNDLE), False)):
        calls.clear()
        code, payload = run_json(["moment", "--input", path])
        assert (code, payload["zero"], len(calls)) == (0, zero, 1)


def test_stability_with_delta_builds_the_generation_record_once(monkeypatch):
    # the verdict and the subobject family of the slope comparison share
    # one generation record
    calls = []
    real = bundles._walk
    monkeypatch.setattr(bundles, "_walk", lambda *a: calls.append(1) or real(*a))
    code, payload = run_json(["stability", "--input", CHAIN_STABLE, "--delta", "50"])
    assert (code, payload["stable"], len(calls)) == (0, True, 1)
    assert payload["delta_verdict"]["refutes_stability"] is False


def test_moment_of_a_rep_with_a_zero_dimensional_vertex(tmp_path):
    path = _write(tmp_path, ZERO_RANK_REP)
    assert run(["validate", "--input", path])[0] == 0
    code, out, err = run(["moment", "--input", path])
    assert (code, err) == (0, "")
    assert out == json.dumps({"residual": {"1": [["0"]], "2": []}, "zero": True}, indent=2) + "\n"


def _with_zero_rank_vertex(doc: dict, at: str, inward: bool) -> dict:
    # a new ordinary vertex "z" of rank 0 and an arrow "w" between it and `at`
    out = copy.deepcopy(doc)
    out["quiver"]["vertices"].append({"name": "z"})
    tail, head = ("z", at) if inward else (at, "z")
    out["quiver"]["arrows"].append({"name": "w", "tail": tail, "head": head})
    if out["kind"] == "bundle":
        out["bundles"]["z"] = []
        out["twist"].update({"w+": 0, "w-": -2})
        n = len(out["bundles"][at])
    else:
        out["dims"]["z"] = 0
        n = out["dims"][at]
    into_z, out_of_z = [], [[] for _ in range(n)]
    out["data"]["w+"], out["data"]["w-"] = (out_of_z, into_z) if inward else (into_z, out_of_z)
    return out


def test_a_joined_zero_rank_vertex_changes_no_exit_code(tmp_path):
    checked = 0
    for fixture in (REP_STABLE, REP_UNSTABLE, BUNDLE_STABLE, BUNDLE_UNSTABLE, CHAIN_STABLE):
        doc = json.loads(Path(fixture).read_text())
        before = {sub: run([sub, "--input", fixture]) for sub in DOCUMENT_SUBCOMMANDS}
        for vertex in doc["quiver"]["vertices"]:
            for inward in (False, True):
                path = _write(tmp_path, _with_zero_rank_vertex(doc, vertex["name"], inward))
                for sub in DOCUMENT_SUBCOMMANDS:
                    code, out, _ = run([sub, "--input", path])
                    where = (fixture, vertex["name"], inward, sub)
                    assert code == before[sub][0], where
                    if sub == "moment":
                        assert json.loads(out)["zero"] == json.loads(before[sub][1])["zero"], where
                    checked += 1
    assert checked == 9 * 2 * (2 + 2 + 2 + 2 + 3)
