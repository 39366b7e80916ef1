"""The library's error types.

A `HypothesisError` is the caller's: its input breaks a stated hypothesis,
and the CLI exits 2.  An `InvariantError` is the library's own defect, and
the CLI exits 3.  This module imports nothing from the package, so a
command that needs only these two loads nothing else for them.
"""


class HypothesisError(ValueError):
    """A stated hypothesis of an operation fails (distinct from a negative verdict)."""


class InvariantError(AssertionError):
    """An internal invariant fails: a defect in the library, not in its input.

    Raised explicitly, so the checks still run under `python -O`.
    """
