"""Run-wide configuration knobs.

Everything here is deliberately tiny: a handful of tolerances pinned once so
that every module agrees on them, plus the dense-tensor entry cap which can be
overridden through the ``NQTENSOR_SIZE_CAP`` environment variable.
"""

import os

from .errors import UsageError

# Dense tensors refuse to materialize beyond this many entries.
DEFAULT_SIZE_CAP = 2 ** 24

# Acceptance threshold for protocol probabilities: anything above is "positive".
ACCEPT_EPS = 1e-9

# Ceiling for how large a rejected input's simulated probability may be.
REJECT_CEILING = 1e-12

# Per-entry tolerance for unitarity checks (U*U - I).
UNITARY_TOL = 1e-10

# Branch-form simulations must conserve total norm to this tolerance.
NORM_TOL = 1e-9

# Default component bound for random nondeterministic substitutions.
SUBSTITUTION_BOUND = 8

# Default master seed for seeded commands.
DEFAULT_SEED = 1


def size_cap() -> int:
    """Current dense-entry cap, honoring the NQTENSOR_SIZE_CAP override."""
    raw = os.environ.get("NQTENSOR_SIZE_CAP")
    if raw is None:
        return DEFAULT_SIZE_CAP
    try:
        value = int(raw)
    except ValueError:
        raise UsageError(f"NQTENSOR_SIZE_CAP must be an integer, got {raw!r}") from None
    if value <= 0:
        raise UsageError(f"NQTENSOR_SIZE_CAP must be positive, got {raw!r}")
    return value
