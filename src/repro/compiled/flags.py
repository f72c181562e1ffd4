"""The engine switch: compiled kernels or the object-graph oracle.

The flat-circuit kernels are the default engine.  The object graph
stays as the reference oracle, selected by setting the
``REPRO_COMPILED`` environment variable to a false spelling (``0``,
``false``, ``no``, ``off`` or the empty string).  The choice is read
once per object, when it is built: ``StatsCache``, ``TimingCache``,
``make_backend`` and ``search_circuit``'s caches resolve it in their
constructors, and the one-shot functions (``propagate_stats``,
``analyze_timing``) on each call.  A cache built under one setting
keeps its engine after the variable changes.

The contract either way: compiled and object-graph results are
**bit-identical** (``tests/test_compiled.py`` locks it), so the flag
is purely a performance switch.
"""

from __future__ import annotations

import os

__all__ = ["ENV_VAR", "compiled_default"]

ENV_VAR = "REPRO_COMPILED"

_TRUE = frozenset(("1", "true", "yes", "on"))
_FALSE = frozenset(("", "0", "false", "no", "off"))


def _parse(value: str) -> bool:
    """One boolean spelling -> bool; raises on anything unrecognised."""
    lowered = value.strip().lower()
    if lowered in _TRUE:
        return True
    if lowered in _FALSE:
        return False
    raise ValueError(
        f"{ENV_VAR}={value!r} is not a boolean; use one of "
        f"{sorted(_TRUE)} / {sorted(_FALSE)}"
    )


def compiled_default() -> bool:
    """Whether an object built now runs on the compiled kernels.

    True unless ``REPRO_COMPILED`` parses false; an unrecognised
    spelling raises instead of silently picking an engine.
    """
    value = os.environ.get(ENV_VAR)
    if value is None:
        return True
    return _parse(value)
