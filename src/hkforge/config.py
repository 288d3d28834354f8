"""Runtime limits for operations that would otherwise grow without bound."""

import os

# Frobenius bracket powers multiply every exponent by p**e; computations past
# e = 6 are almost never what anyone wants interactively.
DEFAULT_BRACKET_CAP = 6

# Upper bound on the levels of the span closure in the public
# `subquotient_length`, on inputs not known to have finite length; past it the
# answer is "possibly infinite".  Lengths finite by proof (Gamma_m and the
# sequences) run the closure to its end, with no cap.
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
