"""Content-token oracle: a renderer that decides every object's rendering
on its own, checking its kind in turn.  ``repro.scenario.cache.content_token``
decides it once per type instead; every cache key in the repository is
hashed from these tokens, so the two must agree byte for byte."""

from __future__ import annotations

import enum
from dataclasses import fields, is_dataclass

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["content_token"]


def content_token(obj) -> str:
    """Canonical token of ``obj``, deciding its rendering per object."""
    if is_dataclass(obj) and not isinstance(obj, type):
        inner = ",".join(
            f"{f.name}={content_token(getattr(obj, f.name))}" for f in fields(obj))
        return f"{type(obj).__name__}({inner})"
    if isinstance(obj, enum.Enum):
        return f"{type(obj).__name__}.{obj.name}"
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return repr(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj).hex()
    if isinstance(obj, (tuple, list)):
        return "(" + ",".join(content_token(v) for v in obj) + ")"
    if isinstance(obj, np.ndarray):
        return "(" + ",".join(content_token(v) for v in obj.tolist()) + ")"
    raise ConfigurationError(
        f"cannot build a content token for {type(obj).__name__!r}")
