#!/usr/bin/env python3
"""Benchmark of quiverbundles: one workload per run, timed end to end or
traced per layer.

    python3 bench/run.py --workload cohomology --seed 1 --seconds 20 --trace 0

Run it from a source checkout; it imports the library from `src/`.  The
last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`; the lines before it print each metric by name
with its unit, and problems go to stderr.  Results and, for traced runs,
spans are also written under bench/results/.  README.md describes the
workloads, the metrics and the rules that keep runs steady.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from speed import Speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

WORKLOADS = ("cohomology", "verdicts", "cli")
SETUP_REPEATS = 5
IMPORT_PROBES = 7
COLD_STARTS = 31
MIN_SAMPLES = 100  # p90 needs at least ten samples beyond it
COLD_ARGV = ["delta-threshold", "--v0", "1", "--v1", "2", "--mu1", "0", "--N", "9"]
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import quiverbundles; "
    "print(time.perf_counter() - t)"
)


def pin_to_one_cpu() -> None:
    """Run this process and the processes it starts on one CPU, so that
    the speed probe measures the CPU that ran the measured work."""
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def _fresh(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=_child_env(), capture_output=True, text=True,
        timeout=120,
    )


def import_probes(speed: Speed) -> tuple[float, float]:
    """Median import time of quiverbundles and, within it, of jsonschema,
    in seconds, over fresh processes run with -X importtime."""
    total, schema = [], []
    for _ in range(IMPORT_PROBES):
        t0 = perf_counter()
        proc = _fresh(["-X", "importtime", "-c", IMPORT_PROBE])
        speed.after(perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"import probe failed: {proc.stderr[-500:]}")
        total.append(float(proc.stdout.split()[-1]))
        for line in proc.stderr.splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[2].strip() == "jsonschema":
                schema.append(int(fields[1]) / 1e6)
    return statistics.median(total), statistics.median(schema) if schema else 0.0


class ColdStart:
    """Wall times of fresh `python -m quiverbundles.cli` processes running a
    subcommand that does almost no work.  The launches are spread over the
    run, between passes, so that they meet the machine in the states the
    passes met; every launch must print what the in-process call printed."""

    def __init__(self, expected: tuple[int, str], seconds: float) -> None:
        self.expected = expected
        self.interval = seconds / COLD_STARTS
        self.walls: list[float] = []
        self.problems: list[str] = []
        self.speed = Speed()
        self._owed = 0.0

    def _launch(self) -> None:
        t0 = perf_counter()
        proc = _fresh(["-m", "quiverbundles.cli", *COLD_ARGV])
        self.walls.append(perf_counter() - t0)
        self.speed.after(self.walls[-1])
        if (proc.returncode, proc.stdout) != self.expected:
            self.problems.append("cold-start launch output differs from the in-process call")

    def after_pass(self, elapsed: float) -> None:
        self._owed += elapsed
        while self._owed >= self.interval and len(self.walls) < COLD_STARTS:
            self._launch()
            self._owed -= self.interval

    def median_s(self) -> float:
        while len(self.walls) < COLD_STARTS:
            self._launch()
        return statistics.median(self.walls)


class Measured:
    """Operation times, outputs of the first pass, and the speed probe."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.passes = 0
        self.first: list | None = None
        self.changed = 0
        self.speed = Speed()

    def scaled(self) -> list[float]:
        """Operation times on the speed probe's scale."""
        return [t * s for t, s in zip(self.times, self.speed.step_scales())]


def measure(run, items, seconds: float | None, passes: int | None = None, tracer=None,
            after_pass=None) -> Measured:
    """Whole passes over items: until `seconds` have passed and at least
    MIN_SAMPLES operations ran, or exactly `passes` passes.  Garbage is
    collected before each pass, never inside an operation; the speed probe
    runs between operations, and after_pass(seconds of the pass's
    operations) between passes."""
    m = Measured()
    deadline = perf_counter() + (seconds or 0.0)
    while True:
        if passes is None:
            if m.passes and perf_counter() >= deadline and len(m.times) >= MIN_SAMPLES:
                break
        elif m.passes == passes:
            break
        gc.collect()
        outs = []
        base = m.passes * len(items)
        for i, item in enumerate(items):
            t0 = perf_counter()
            try:
                out = run(item) if tracer is None else tracer.operation(base + i, run, item)
            except Exception as exc:
                out = Raised(f"{type(exc).__name__}: {exc}")
            m.times.append(perf_counter() - t0)
            outs.append(out)
            m.speed.after(m.times[-1])
        m.passes += 1
        if after_pass is not None:
            after_pass(sum(m.times[base:]))
        if m.first is None:
            m.first = outs
        elif outs != m.first:
            m.changed += 1
    return m


class Raised:
    """An operation's exception, kept in place of its output."""

    def __init__(self, text: str) -> None:
        self.text = text

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Raised) and other.text == self.text


def p90(times: list[float]) -> float:
    return statistics.quantiles(times, n=10)[8]


def byte_identity(items, outputs, failed: set[int], seed: int) -> list[str]:
    """Re-run one sampled invocation per subcommand in a fresh process and
    require the same exit code and stdout bytes."""
    rng = random.Random(f"bytes:{seed}")
    by_command: dict[str, list[int]] = {}
    for i, item in enumerate(items):
        if i not in failed:
            by_command.setdefault(item[0][0], []).append(i)
    problems = []
    for command in sorted(by_command):
        i = rng.choice(by_command[command])
        proc = _fresh(["-m", "quiverbundles.cli", *items[i][0]])
        code, stdout, _ = outputs[i]
        if (proc.returncode, proc.stdout) != (code, stdout):
            problems.append(f"{' '.join(items[i][0])}: fresh process differs from in-process run")
    return problems


def layer_metrics(tracer, items, traced: Measured, untraced: Measured, imports) -> tuple[dict, list[str]]:
    passes = traced.passes
    scale = traced.speed.scale
    op_ids = set(range(passes * len(items)))
    agg = tracer.summary(op_ids)
    setup = tracer.summary(None)

    def val(name: str, key: str):
        """Per pass; times on the speed probe's scale."""
        v = agg.get(name, {}).get(key, 0)
        if key == "calls":
            return per(v)
        return v * scale if key == "max_s" else v * scale / passes

    def per(x):
        x = x / passes
        return int(x) if float(x).is_integer() else x

    rows, nnz, rank = tracer.sparse_totals(op_ids)
    main_children = tracer.children_of("cli.main", op_ids)
    op_time = agg.get("op", {}).get("s", 0.0)
    self_sum = sum(a["self_s"] for a in agg.values())
    problems = []
    if op_time and abs(self_sum - op_time) > 1e-6 * op_time:
        problems.append(f"self times add up to {self_sum} s, operations took {op_time} s")
    untraced_rate = len(untraced.times) / sum(untraced.scaled())
    traced_rate = len(traced.times) / sum(traced.scaled())
    points = tracer.count_children("linalg.rank", "polynomials.generic_rank", op_ids)

    out = {
        "complexes.build_complex.s": (val("complexes.build_complex", "s"), "s"),
        "complexes.hypercoh_dims.self_s": (val("complexes.hypercoh_dims", "self_s"), "s"),
        "linalg.sparse_rank.s": (val("linalg.sparse_rank", "s"), "s"),
        "linalg.sparse_rank.max_s": (val("linalg.sparse_rank", "max_s"), "s"),
        "linalg.sparse_rank.calls": (val("linalg.sparse_rank", "calls"), "count"),
        "linalg.sparse_rank.rows": (per(rows), "count"),
        "linalg.sparse_rank.nnz": (per(nnz), "count"),
        "linalg.sparse_rank.rank_per_row": (rank / rows if rows else 0.0, "rank/row"),
        "linalg.rank.calls": (val("linalg.rank", "calls"), "count"),
        "linalg.rank.s": (val("linalg.rank", "s"), "s"),
        "linalg.row_space_basis.calls": (val("linalg.row_space_basis", "calls"), "count"),
        "linalg.row_space_basis.s": (val("linalg.row_space_basis", "s"), "s"),
        "bundles.residual_is_zero.calls": (val("bundles.residual_is_zero", "calls"), "count"),
        "bundles.residual_is_zero.s": (val("bundles.residual_is_zero", "s"), "s"),
        "bundles.generation_columns.calls": (val("bundles.generation_columns", "calls"), "count"),
        "bundles.generation_columns.s": (val("bundles.generation_columns", "s"), "s"),
        "bundles.base_locus.calls": (val("bundles.base_locus", "calls"), "count"),
        "bundles.base_locus.s": (val("bundles.base_locus", "s"), "s"),
        "polynomials.poly_det.calls": (val("polynomials.poly_det", "calls"), "count"),
        "polynomials.poly_det.s": (val("polynomials.poly_det", "s"), "s"),
        "polynomials.poly_gcd.calls": (val("polynomials.poly_gcd", "calls"), "count"),
        "polynomials.poly_gcd.s": (val("polynomials.poly_gcd", "s"), "s"),
        "polynomials.generic_rank.calls": (val("polynomials.generic_rank", "calls"), "count"),
        "polynomials.generic_rank.s": (val("polynomials.generic_rank", "s"), "s"),
        "polynomials.generic_rank.points": (per(points), "count"),
        "polynomials.format_factored.s": (val("polynomials.format_factored", "s"), "s"),
        "representations.is_stable_framed.s": (val("representations.is_stable_framed", "s"), "s"),
        "stability.generated_subsheaf_summary.s": (val("stability.generated_subsheaf_summary", "s"), "s"),
        "stability.subobject_family.s": (val("stability.subobject_family", "s"), "s"),
        "stability.check_delta_stability.s": (val("stability.check_delta_stability", "s"), "s"),
        "generators.stable_bundles.s": (
            setup.get("generators.stable_bundles", {}).get("s", 0.0) * scale, "s"),
        "generators.gen_bundle.s": (setup.get("generators.gen_bundle", {}).get("s", 0.0) * scale, "s"),
        "serialization.parse_document.calls": (val("serialization.parse_document", "calls"), "count"),
        "serialization.parse_document.s": (val("serialization.parse_document", "s"), "s"),
        "serialization.schema_errors.s": (val("serialization.schema_errors", "s"), "s"),
        "cli.main.self_s": (val("cli.main", "self_s"), "s"),
        "cli.compute_s": (
            sum(v for k, v in main_children.items() if k != "serialization.parse_document")
            * scale / passes,
            "s",
        ),
        "import.quiverbundles_ms": (imports[0] * 1e3, "ms"),
        "import.jsonschema_ms": (imports[1] * 1e3, "ms"),
        "trace.op_s": (op_time * scale / passes, "s"),
        "trace.op_self_s": (val("op", "self_s"), "s"),
        "trace.overhead_pct": (100.0 * (1.0 - traced_rate / untraced_rate), "%"),
    }
    return out, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "quiverbundles" / "__init__.py").is_file():
        print(f"error: no library sources at {SRC / 'quiverbundles'}; "
              "run from a quiverbundles checkout", file=sys.stderr)
        return 2
    pin_to_one_cpu()
    sys.path.insert(0, str(SRC))
    import workloads  # imports the library; set-up times its import in fresh processes
    from tracer import Tracer

    RESULTS.mkdir(parents=True, exist_ok=True)
    wl = {
        "cohomology": workloads.Cohomology,
        "verdicts": workloads.Verdicts,
        "cli": lambda: workloads.Cli(RESULTS / "docs" / f"seed{args.seed}"),
    }[args.workload]()

    # set-up: fresh-process import, then input generation, each repeated
    setup_speed = Speed()
    imports = import_probes(setup_speed)
    builds = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        items = wl.build(args.seed)
        builds.append(perf_counter() - t0)
        setup_speed.after(builds[-1])
    setup_s = (imports[0] + statistics.median(builds)) * setup_speed.scale

    problems: list[str] = []
    tracer = None
    if args.trace:
        untraced = measure(wl.run, items, args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            wl.build(args.seed)  # once more, traced, for the generators' spans
            traced = measure(wl.run, items, None, passes=untraced.passes, tracer=tracer)
        finally:
            tracer.uninstall()
        if traced.first != untraced.first:
            problems.append("traced outputs differ from untraced outputs")
        m = untraced
    else:
        cold = ColdStart(workloads.run_cli(COLD_ARGV)[:2], args.seconds)
        m = measure(wl.run, items, args.seconds, after_pass=cold.after_pass)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if m.changed:
        problems.append(f"outputs changed between passes in {m.changed} passes")
    raised = {i for i, out in enumerate(m.first) if isinstance(out, Raised)}
    problems.extend(f"item {i} raised {m.first[i].text}" for i in sorted(raised))
    ok = [i for i in range(len(items)) if i not in raised]
    found, failed = wl.check([items[i] for i in ok], [m.first[i] for i in ok])
    problems.extend(found)
    failed = {ok[j] for j in failed} | raised
    if args.workload == "cli":
        problems.extend(byte_identity(items, m.first, failed, args.seed))

    if args.trace:
        metrics, trace_problems = layer_metrics(
            tracer, items, traced, untraced, [t * setup_speed.scale for t in imports]
        )
        problems.extend(trace_problems)
        tracer.write(RESULTS / f"spans-{args.workload}-seed{args.seed}.json")
    else:
        cold_s = cold.median_s()
        problems.extend(cold.problems)
        scaled = m.scaled()
        metrics = {
            "ops_per_s": (len(scaled) / sum(scaled), "ops/s"),
            "p50_ms": (statistics.median(scaled) * 1e3, "ms"),
            "p90_ms": (p90(scaled) * 1e3, "ms"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "cold_start_ms": (cold_s * cold.speed.scale * 1e3, "ms"),
        }
        raw = {
            "ops_per_s": len(m.times) / sum(m.times),
            "p50_ms": statistics.median(m.times) * 1e3,
            "p90_ms": p90(m.times) * 1e3,
            "setup_s": imports[0] + statistics.median(builds),
            "cold_start_ms": cold_s * 1e3,
        }
        scales = {"passes": m.speed.scale, "setup": setup_speed.scale,
                  "cold_start": cold.speed.scale}

    attempted = len(items) * m.passes
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(failed) * m.passes,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    for p in problems[:20]:
        print(f"problem: {p}", file=sys.stderr)
    detail = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  passes=m.passes, ops_per_pass=len(items), problems=problems)
    if not args.trace:
        detail.update(raw=raw, speed_scale=scales)
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1, sort_keys=True)
    )
    print(f"workload {args.workload}  seed {args.seed}  passes {m.passes} x {len(items)} ops")
    print(f"attempted {attempted}  failed {result['failed']}  correct {result['correct']}")
    for k, (v, u) in metrics.items():
        print(f"{k:44s} {v:14.6g} {u}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
