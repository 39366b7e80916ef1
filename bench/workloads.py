"""The three benchmark workloads: input lists, timed operations, checks.

Each workload builds a fixed list of inputs from the seed; one operation
is one call on one input, and a pass runs every operation once, in list
order.  `check` looks at the outputs of one pass outside any timed region
and returns (problems, indices of failed operations).

Part of each list is a fixed core that does not depend on the seed.  The
instance families are heavy-tailed in cost (a rank-7 `adhm` bundle takes
0.02 s to 3.5 s, depending on its seed), so a list drawn wholly from the
seed would change its total cost by more than any bound between two runs.
The seeded part keeps each run on inputs no code was tuned to; the core
keeps the totals comparable.  README.md gives the make-up of each list.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction
from pathlib import Path

import quiverbundles as qb
from quiverbundles import cli, complexes, generators
from quiverbundles.generators import InstanceSpec, bundle_spec

import checks

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"


# ---------------------------------------------------------------------------
# cohomology: build_complex then hypercoh_dims on stable quasimaps


class Cohomology:
    """Stable bundles of the generator rotation at degree bound 4, the
    family of acceptance criterion 5.

    Core: the first 100 stable instances at rotation seed 23, whose first
    50 are the criterion's own pool.  Seeded: the first stable instance of every rotation
    shape at rotation seed `seed` (a shape with none among its first 64
    instances contributes none).

    The window check recomputes each seeded instance and one core instance
    in WINDOW_STRIDE, chosen by the seed, three steps wider.
    """

    name = "cohomology"
    CORE_SEED = 23
    CORE_COUNT = 100
    DEGREE_BOUND = 4
    SHAPE_TRIES = 64
    WINDOW_STRIDE = 5

    def build(self, seed: int) -> list:
        self.seed = seed
        items = list(generators.stable_bundles(self.CORE_COUNT, seed=self.CORE_SEED,
                                               degree_bound=self.DEGREE_BOUND))
        found: dict[tuple, object] = {}
        tried: dict[tuple, int] = {}
        first = None
        for k in range(10**6):
            spec = bundle_spec(k, seed, self.DEGREE_BOUND)
            shape = (spec.preset, spec.dims, spec.framing)
            if first is None:
                first = shape
            elif shape == first and all(
                s in found or n >= self.SHAPE_TRIES for s, n in tried.items()
            ):
                break  # a new turn of the rotation, and every shape is settled
            if shape in found or tried.get(shape, 0) >= self.SHAPE_TRIES:
                continue
            tried[shape] = tried.get(shape, 0) + 1
            e = generators.gen_bundle(spec)
            if qb.is_stable_quasimap(e):
                found[shape] = e
        return items + [found[s] for s in tried if s in found]

    @staticmethod
    def run(e):
        k = complexes.build_complex(e)
        return k, complexes.hypercoh_dims(k)

    def check(self, items, outputs):
        problems, failed = [], set()
        for i, (e, out) in enumerate(zip(items, outputs)):
            k, report = out
            found = checks.cohomology_problems(e, report)
            wider = i >= self.CORE_COUNT or i % self.WINDOW_STRIDE == self.seed % self.WINDOW_STRIDE
            if wider and not found:
                found = checks.window_problems(
                    report, complexes.hypercoh_dims(k, k.min_window + 3)
                )
            problems.extend(f"item {i}: {p}" for p in found)
        return problems, failed


# ---------------------------------------------------------------------------
# verdicts: the stability verdicts the CLI exposes


class Verdicts:
    """Stable and unstable bundles alike, never filtered by cost.

    Core: the `adhm` family with framing 2 and degree bound equal to the
    rank, ranks 5 to 7, generator seeds 0 to 3 in order; and the first 192
    specs of the two-preset rotation at rotation seed 0 (degree bound 2).
    Seeded: the first 16 specs of that rotation at rotation seed `seed`.
    """

    name = "verdicts"
    RANKS = (5, 6, 7)
    CORE_SEEDS = 4
    CORE_SMALL = 192
    SEEDED_SMALL = 16

    def build(self, seed: int) -> list:
        specs = [
            InstanceSpec("adhm", (r,), framing=2, degree_bound=r, seed=s)
            for r in self.RANKS
            for s in range(self.CORE_SEEDS)
        ]
        specs += [bundle_spec(k, 0) for k in range(self.CORE_SMALL)]
        specs += [bundle_spec(k, seed) for k in range(self.SEEDED_SMALL)]
        return [generators.gen_bundle(spec) for spec in specs]

    @staticmethod
    def run(e):
        stable = qb.is_stable_quasimap(e)
        locus = qb.base_locus(e)
        factored = qb.format_factored(locus.polynomial)
        asym = qb.asymptotic_equivalence_check(e)
        hn = qb.hn_quotient_bound_check(e, max(qb.instance_threshold(e), Fraction(1)))
        return stable, locus, factored, asym, hn

    def check(self, items, outputs):
        problems = []
        for i, (e, out) in enumerate(zip(items, outputs)):
            problems.extend(f"item {i}: {p}" for p in checks.verdict_problems(e, out))
        return problems, set()


# ---------------------------------------------------------------------------
# cli: cli.main in process over subcommand x document


DOC_COMMANDS = ("validate", "stability", "base-locus", "asym-check", "hn-bound", "defcomplex")


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """One in-process invocation: (exit code, stdout, stderr).  An uncaught
    exception ends the invocation as a fresh process would: exit 1."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as exc:  # a traceback exits 1 in a fresh process
            code = 1
            err.write(f"{type(exc).__name__}: {exc}\n")
    return code, out.getvalue(), err.getvalue()


class Cli:
    """Core: every fixture in tests/fixtures under the six document
    subcommands.  Seeded: two `adhm` and two `chain` bundle documents and
    one representation document of each preset, all fixture-size, under
    the same subcommands; two `gen`, two `delta-threshold` and two `slope`
    invocations with seeded flags."""

    name = "cli"

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir

    def build(self, seed: int) -> list:
        rng = random.Random(f"{self.name}:{seed}")
        self.workdir.mkdir(parents=True, exist_ok=True)
        docs: list[tuple[Path, bool]] = [(p, False) for p in sorted(FIXTURES.glob("*.json"))]
        specs = [
            ("bundle", InstanceSpec("adhm", (2,), framing=1, seed=rng.randrange(10**6))),
            ("bundle", InstanceSpec("adhm", (2,), framing=1, seed=rng.randrange(10**6))),
            ("bundle", InstanceSpec("chain", (1, 1), framing=1, seed=rng.randrange(10**6))),
            ("bundle", InstanceSpec("chain", (1, 1), framing=1, seed=rng.randrange(10**6))),
            ("rep", InstanceSpec("adhm", (2,), framing=1, seed=rng.randrange(10**6))),
            ("rep", InstanceSpec("chain", (1, 1), framing=1, seed=rng.randrange(10**6))),
        ]
        for j, (kind, spec) in enumerate(specs):
            if kind == "bundle":
                doc = qb.bundle_to_doc(generators.gen_bundle(spec), meta={"seed": spec.seed})
            else:
                doc = qb.rep_to_doc(generators.gen_rep(spec), meta={"seed": spec.seed})
            path = self.workdir / f"generated_{j}_{kind}.json"
            path.write_text(qb.dumps(doc))
            docs.append((path, True))
        items = []
        for path, seeded in docs:
            doc = json.loads(path.read_text())
            for command in DOC_COMMANDS:
                items.append(([command, "--input", str(path)], doc, seeded))
        # flag=value, because argparse takes a value such as -5/2 for an option
        for preset, dims in (("adhm", "2"), ("chain", "1,1")):
            items.append((["gen", "--kind=bundle", f"--preset={preset}", f"--dims={dims}",
                           f"--seed={rng.randrange(10**6)}", "--out=-"], None, True))
        for _ in range(2):
            mu1 = Fraction(rng.randint(-8, 8), rng.randint(1, 3))
            items.append((["delta-threshold", f"--v0={rng.randint(1, 3)}",
                           f"--v1={rng.randint(1, 6)}", f"--mu1={mu1}",
                           f"--N={rng.randint(0, 12)}"], None, True))
        for _ in range(2):
            items.append((["slope", f"--v0={rng.randint(1, 3)}", f"--v1={rng.randint(1, 6)}",
                           f"--d={rng.randint(-6, 6)}", f"--delta={rng.randint(1, 40)}"],
                          None, True))
        return items

    @staticmethod
    def run(item):
        return run_cli(item[0])

    def check(self, items, outputs):
        problems, failed = [], set()
        stable_of: dict[str, bool] = {}
        for i, ((argv, doc, seeded), (code, stdout, stderr)) in enumerate(zip(items, outputs)):
            want = checks.expected_exit(argv, doc)
            if code != want:
                failed.add(i)
                if seeded:
                    problems.append(f"{' '.join(argv)}: exit {code}, expected {want}")
                continue
            stable = None
            if doc is not None and code == 0 and argv[0] != "validate":
                path = argv[2]
                if path not in stable_of:
                    stable_of[path] = checks.generically_stable(checks.fiber_data_of_doc(doc))
                stable = stable_of[path]
            problems.extend(
                f"{' '.join(argv)}: {p}" for p in checks.cli_problems(argv, doc, code, stdout, stderr, stable)
            )
        return problems, failed
