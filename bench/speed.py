"""Machine-speed probe that puts every timing on a common scale.

On a shared machine the same work can take 30% longer from one minute to
the next, while CPU time tracks wall time: the machine itself runs slower,
so no choice of clock removes it.  The benchmark therefore runs a fixed
reference kernel, made of the same kinds of work as the library (exact
sparse integer elimination with gcd normalization, and Fraction
arithmetic) but not calling it, interleaved with the measured work:
after the timed steps, in batches that take about DUTY of their duration.
Each timed step is then rescaled by REFERENCE_S / (mean time of the
reference calls just before and just after it, at least WINDOW of them),
which is the time the same work would take on a machine where one
reference call takes exactly REFERENCE_S.

The probe must not depend on what the library does.  Each batch starts
with one untimed call, so that timed calls find their data in cache
however much the library's last operation evicted, and the collector is
off inside the batch, so that the library's heap cannot slow it; the
kernel builds no reference cycles.
"""

from __future__ import annotations

import gc
from fractions import Fraction
from math import gcd
from time import perf_counter

REFERENCE_S = 0.002
DUTY = 0.1
BATCH = 4  # timed calls a batch waits for
WINDOW = 16  # reference calls behind one step's scale


def reference_kernel() -> tuple[int, Fraction]:
    """Fixed work of about REFERENCE_S on the machine the constant was set
    on: the rank of a seeded sparse integer matrix by fraction-free
    elimination, then a Fraction sum."""
    x = 12345
    work: dict[int, dict[int, int]] = {}
    for r in range(28):
        row: dict[int, int] = {}
        for _ in range(6):
            x = (x * 1103515245 + 12345) % 2147483648
            row[x % 40] = (x >> 8) % 19 - 9 or 1
        work[r] = row
    rank = 0
    while work:
        _, prow = work.popitem()
        pc = min(prow)
        pv = prow[pc]
        rank += 1
        for j, row in list(work.items()):
            f = row.get(pc)
            if f is None:
                continue
            new = {c: v * pv for c, v in row.items()}
            for c, v in prow.items():
                nv = new.get(c, 0) - f * v
                if nv:
                    new[c] = nv
                else:
                    new.pop(c, None)
            if not new:
                del work[j]
                continue
            g = 0
            for v in new.values():
                g = gcd(g, v)
            work[j] = {c: v // g for c, v in new.items()} if g > 1 else new
    acc = Fraction(0)
    for k in range(1, 120):
        acc += Fraction(k % 17 + 1, k % 23 + 1) * Fraction(3, k)
    return rank, acc


class Speed:
    """Reference calls made alongside the timed steps of one phase."""

    def __init__(self) -> None:
        self.steps = 0
        # (steps before the batch, seconds, calls) per batch
        self.batches: list[tuple[int, float, int]] = []
        self._debt = 0.0

    def after(self, elapsed: float) -> None:
        """Account for a timed step of `elapsed` seconds: once the steps
        owe BATCH reference calls, or after the first step, run a batch
        until the timed calls have taken about DUTY of all step time."""
        self.steps += 1
        self._debt += DUTY * elapsed
        if self._debt < BATCH * REFERENCE_S and self.batches:
            return
        gc.disable()
        try:
            reference_kernel()
            spent, calls = 0.0, 0
            while self._debt >= 0.0 or not calls:
                t0 = perf_counter()
                reference_kernel()
                dt = perf_counter() - t0
                spent += dt
                calls += 1
                self._debt -= dt
        finally:
            gc.enable()
        self.batches.append((self.steps, spent, calls))

    @property
    def scale(self) -> float:
        """One factor for every step of the phase."""
        return REFERENCE_S * sum(c for _, _, c in self.batches) / sum(
            s for _, s, _ in self.batches
        )

    def step_scales(self) -> list[float]:
        """Factor per step, from the reference calls nearest to it: the
        batches just before and just after it, widened to neighbouring
        batches until the window holds WINDOW calls."""
        out: list[float] = []
        done = 0
        last = len(self.batches) - 1
        for b, (steps, _, _) in enumerate(self.batches):
            lo, hi = max(b - 1, 0), b
            spent = sum(x[1] for x in self.batches[lo:hi + 1])
            calls = sum(x[2] for x in self.batches[lo:hi + 1])
            while calls < WINDOW and (lo > 0 or hi < last):
                if lo > 0:
                    lo -= 1
                    spent, calls = spent + self.batches[lo][1], calls + self.batches[lo][2]
                if hi < last:
                    hi += 1
                    spent, calls = spent + self.batches[hi][1], calls + self.batches[hi][2]
            out.extend([REFERENCE_S * calls / spent] * (steps - done))
            done = steps
        if done < self.steps:
            out.extend([out[-1] if out else self.scale] * (self.steps - done))
        return out
