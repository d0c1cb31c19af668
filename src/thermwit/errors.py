"""The package's errors: one base class and the two failures a caller tells apart.

- Every error the package raises on purpose is a ``ThermwitError``, which is
  a ``ValueError``; its message says what was wrong. The CLI exits 2 on one,
  unless it is ``NoSignChange`` or the CLI's own cross-check mismatch (4).
- ``NoSignChange`` is a numerical failure: a root search found no sign
  change to close in on. The CLI exits 3 on it.
- ``ThresholdUnreachable`` means the condition holds at every temperature,
  so there is no crossing; ``toy`` prints ``t0_closed_form = unreachable``.
"""


class ThermwitError(ValueError):
    """Base class for all package-specific errors."""


class NoSignChange(ThermwitError):
    """Bisection bracket does not straddle a root."""


class ThresholdUnreachable(ThermwitError):
    """Degenerate-gap condition holds at every temperature; no finite crossing."""
