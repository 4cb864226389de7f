"""The one rule of read-only results: every result type that can reach a
cache calls :func:`read_only` on its array and mapping fields from
``__post_init__``, so a finished report can be shared as it is."""

from __future__ import annotations

from types import MappingProxyType
from typing import Any

import numpy as np


def read_only(value: Any) -> Any:
    """``value`` made read-only: an ndarray in place, a tuple item by item,
    a dict as a read-only mapping view; anything else is left as it is."""
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
    elif isinstance(value, tuple):
        for item in value:
            read_only(item)
    elif isinstance(value, dict):
        return MappingProxyType(value)
    return value
