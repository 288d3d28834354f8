"""Runtime limits for operations that would otherwise grow without bound."""

import os

# Frobenius bracket powers multiply every exponent by p**e; computations past
# e = 6 are almost never what anyone wants interactively.
DEFAULT_BRACKET_CAP = 6

# Upper bound on the levels of the span closure that measures a subquotient
# (for m-torsion at most the nilpotency exponent + 1).  Not every finite
# length closes within it: vjj on the Katzman pair at p = 3 up to e = 4 needs
# more levels, and under this default its last level reads "possibly infinite".
DEFAULT_NILPOTENCY_CAP = 64

# Saturation terminates by the ascending chain condition; the cap only guards
# against runaway inputs (e.g. saturating a huge finite-colength ideal).
DEFAULT_SATURATION_CAP = 256

ENV_BRACKET_CAP = "HKFORGE_EMAX_CAP"


def bracket_cap() -> int:
    """Current cap on the Frobenius exponent e, overridable via HKFORGE_EMAX_CAP."""
    raw = os.environ.get(ENV_BRACKET_CAP)
    if raw is None:
        return DEFAULT_BRACKET_CAP
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"{ENV_BRACKET_CAP} must be an integer, got {raw!r}") from exc
    if value < 0:
        raise ValueError(f"{ENV_BRACKET_CAP} must be non-negative, got {value}")
    return value
