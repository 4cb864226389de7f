"""The one rule of read-only results: every result type that can reach a
cache calls :func:`read_only` on its array and mapping fields from
``__post_init__``, so a finished report can be shared as it is.

Three helpers serve those result types as well: :func:`row_builder`
builds the rows of a stacked fast kernel without a constructor call per
row, :func:`restore_read_only` keeps the rule across pickling and
copying, and :func:`fields_equal` is the ``==`` of a result that holds
arrays.
"""

from __future__ import annotations

import dataclasses
import functools
from types import MappingProxyType
from typing import Any, Callable, TypeVar

import numpy as np

T = TypeVar("T")


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


def restore_read_only(self: Any, state: dict[str, Any]) -> None:
    """``__setstate__`` of a read-only result.  Unpickling (and
    :mod:`copy`) writes the instance ``__dict__`` back without
    ``__init__``, and a pickled array comes back writeable, so every
    array the state holds is made read-only again (:func:`read_only`)."""
    self.__dict__.update(state)
    read_only(tuple(state.values()))


@functools.cache
def row_builder(cls: type[T]) -> Callable[..., T]:
    """A keyword-only function that makes an instance of the frozen
    dataclass ``cls`` by writing its ``__dict__`` in
    :func:`dataclasses.fields` order, with the class defaults filled in,
    without running ``__init__`` or ``__post_init__``.

    ``row_builder(cls)(**fields)`` equals ``cls(**fields)`` once the
    caller has checked that class's ``__post_init__`` invariants for the
    whole column of rows it builds (made every array read-only, raised
    for a rejected row).  A frozen ``__init__`` pays one
    ``object.__setattr__`` call per field, which was most of a stacked
    kernel's time per row; a plain dict store is a few times cheaper.
    Writing in field order, as the generated ``__init__`` does, keeps
    the instance dicts key-shared.  Unknown or missing fields raise
    :class:`TypeError`, as the constructor does.  Generated once per
    class, as :mod:`dataclasses` generates ``__init__``.
    """
    params, stores = [], []
    env: dict[str, Any] = {"_new": object.__new__, "_cls": cls}
    for f in dataclasses.fields(cls):
        if not f.init or f.default_factory is not dataclasses.MISSING:
            raise TypeError(
                f"{cls.__name__}.{f.name}: row_builder fills init fields with plain defaults only"
            )
        if f.default is dataclasses.MISSING:
            params.append(f.name)
        else:
            env[f"_default_{f.name}"] = f.default
            params.append(f"{f.name}=_default_{f.name}")
        stores.append(f"    state[{f.name!r}] = {f.name}\n")
    source = (
        f"def build(*, {', '.join(params)}):\n"
        "    obj = _new(_cls)\n"
        "    state = obj.__dict__\n"
        f"{''.join(stores)}"
        "    return obj\n"
    )
    exec(source, env)
    build = env["build"]
    build.__qualname__ = f"row_builder({cls.__qualname__})"
    return build


def _same(a: Any, b: Any) -> bool:
    """Field values equal: ndarrays by dtype, shape and
    :func:`numpy.array_equal`, tuples item by item, the rest by ``==``."""
    if a is b:
        return True
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (
            isinstance(a, np.ndarray)
            and isinstance(b, np.ndarray)
            and a.dtype == b.dtype
            and a.shape == b.shape
            and bool(np.array_equal(a, b))
        )
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(map(_same, a, b))
    return bool(a == b)


def fields_equal(self: Any, other: Any) -> Any:
    """``==`` of a dataclass result that holds arrays, set as its
    ``__eq__``: the generated one compares field tuples, which raises
    ``ValueError`` on a multi-element array.  Same class and every
    ``compare`` field equal by :func:`_same`; another class gives
    ``NotImplemented``, as the generated ``__eq__`` does."""
    if other.__class__ is not self.__class__:
        return NotImplemented
    return all(
        _same(getattr(self, f.name), getattr(other, f.name))
        for f in dataclasses.fields(self)
        if f.compare
    )
