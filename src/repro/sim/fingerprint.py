"""Stable content fingerprints for simulation inputs.

A kernel simulation is a pure function of ``(KernelProgram,
LaunchConfig, GPUSpec, SimConfig)`` — the seed lives inside
:class:`~repro.sim.config.SimConfig` — so two launches with equal
*content* always produce bit-identical results.  The fingerprint is a
SHA-256 over a canonical encoding of that tuple, giving a key that is

* **stable across processes and runs** (unlike ``id()``), so it can
  address a persistent on-disk cache;
* **collision-safe for equal-shaped but different programs** (unlike
  ``id()``-keyed memoization, where the interpreter may reuse a freed
  object's address — see the regression test in
  ``tests/test_engine_cache.py``).

The canonical encoding walks dataclasses field by field (in declared
order, with the class name mixed in), lowers enums to ``ClassName.NAME``
and renders the result as compact sorted-key JSON.  Every type the
simulator's input dataclasses use is covered; anything else is a hard
error rather than a silently unstable ``repr``.

Callers on the hot path use :func:`content_key`, which encodes each
frozen input *object* once: a long-lived program, spec or config is
canonicalized on first sight and its encoding reused by every later
key that includes it.  The bytes hashed are exactly those of
:func:`content_digest`, so the keys are identical.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from typing import Any

#: bump when the encoding (not the simulator) changes incompatibly.
FINGERPRINT_SCHEMA = "repro/sim-fingerprint@1"

#: bound of the identity memo behind :func:`content_key`; it is
#: dropped wholesale when full.
KEY_MEMO_MAX = 4096

#: ``id(obj) -> (obj, encoding)`` for frozen dataclass inputs.  Values
#: hold strong references, so an id cannot be reused by a different
#: object while its entry lives.
_ENCODINGS: dict[int, tuple[Any, str]] = {}


def canonicalize(obj: Any) -> Any:
    """Lower ``obj`` to JSON-encodable data with a stable layout."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return [
            type(obj).__name__,
            [
                [f.name, canonicalize(getattr(obj, f.name))]
                for f in dataclasses.fields(obj)
            ],
        ]
    if isinstance(obj, enum.Enum):
        return f"{type(obj).__name__}.{obj.name}"
    if isinstance(obj, (list, tuple)):
        return [canonicalize(item) for item in obj]
    if isinstance(obj, dict):
        return sorted(
            [canonicalize(k), canonicalize(v)] for k, v in obj.items()
        )
    if isinstance(obj, frozenset):
        return sorted(canonicalize(item) for item in obj)
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    raise TypeError(
        f"cannot canonicalize {type(obj).__name__!r} for fingerprinting"
    )


def content_digest(*parts: Any) -> str:
    """SHA-256 hex digest of the canonical encoding of ``parts``."""
    payload = json.dumps(
        [FINGERPRINT_SCHEMA, [canonicalize(p) for p in parts]],
        separators=(",", ":"),
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _encode(obj: Any) -> str:
    return json.dumps(canonicalize(obj), separators=(",", ":"),
                      sort_keys=True)


_SCHEMA_JSON = _encode(FINGERPRINT_SCHEMA)


def _encoding(obj: Any) -> str:
    """Encoding of one part, memoized by identity for frozen inputs
    (whose content cannot change after the first encoding)."""
    params = getattr(type(obj), "__dataclass_params__", None)
    if params is None or not params.frozen:
        return _encode(obj)
    hit = _ENCODINGS.get(id(obj))
    if hit is not None:
        return hit[1]
    text = _encode(obj)
    if len(_ENCODINGS) >= KEY_MEMO_MAX:
        _ENCODINGS.clear()
    _ENCODINGS[id(obj)] = (obj, text)
    return text


def content_key(*parts: Any) -> str:
    """:func:`content_digest` of ``parts``, encoding each frozen part
    once per object (JSON nests, so the joined encodings are the very
    bytes :func:`content_digest` hashes)."""
    payload = "[%s,[%s]]" % (
        _SCHEMA_JSON, ",".join(_encoding(p) for p in parts)
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def sim_fingerprint(program, launch, spec, config) -> str:
    """Content key of one kernel simulation (the unit the caches store)."""
    return content_key(program, launch, spec, config)


__all__ = [
    "FINGERPRINT_SCHEMA",
    "KEY_MEMO_MAX",
    "canonicalize",
    "content_digest",
    "content_key",
    "sim_fingerprint",
]
