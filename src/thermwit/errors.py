"""The package's errors: one base class and the one failure a caller tells apart.

- Every error the package raises on purpose is a ``ThermwitError``, which is
  a ``ValueError``; its message says what was wrong. The CLI exits 2 on one,
  unless it is ``NoSignChange`` or the CLI's own cross-check mismatch (4).
- ``NoSignChange`` is a numerical failure: a root search found no sign
  change to close in on. The CLI exits 3 on it.
"""


class ThermwitError(ValueError):
    """Base class for all package-specific errors."""


class NoSignChange(ThermwitError):
    """Bisection bracket does not straddle a root."""
