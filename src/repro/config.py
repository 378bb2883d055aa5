"""Frozen config values built from untyped input, by their annotations.

The one builder behind ``repro run --set/--config`` and a replica
process's ``--options``: each supplied value is read as the type its
field declares, unknown field names are refused, and the dataclass's
own ``__post_init__`` validation runs on the result — so a config built
here is exactly as legal as one built in code.

A value is either JSON data (a ``--config`` object, a replica's
options) or a command-line string.  Strings are read by annotation:
``int``/``float`` parse, ``None`` is spelled ``null`` or ``none``, a
tuple is comma-separated, an enum by its value, and a nested dataclass
as a JSON object.
"""

from __future__ import annotations

import enum
import json
from dataclasses import fields, is_dataclass
from typing import Any, Mapping, Union, get_args, get_origin, get_type_hints

_NONE_SPELLINGS = (None, "null", "none")


def build_config(cls: type, values: Mapping[str, Any]):
    """``cls`` from ``values``; an omitted field takes its default.

    Raises ``ValueError`` naming the field for a value that does not
    read as its annotation, an unknown field, or whatever the
    dataclass's validation rejects.
    """
    hints = get_type_hints(cls)
    known = [field.name for field in fields(cls)]
    unknown = sorted(set(values) - set(known))
    if unknown:
        raise ValueError(
            f"{cls.__name__} has no field {unknown[0]!r} (fields: {', '.join(known)})"
        )
    typed = {}
    for name, value in values.items():
        try:
            typed[name] = _coerce(hints[name], value)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{name}: {exc}") from None
    return cls(**typed)


def _coerce(hint: Any, value: Any) -> Any:
    if get_origin(hint) is Union:
        members = [member for member in get_args(hint) if member is not type(None)]
        if len(members) < len(get_args(hint)) and value in _NONE_SPELLINGS:
            return None
        errors = []
        for member in members:
            try:
                return _coerce(member, value)
            except (TypeError, ValueError) as exc:
                errors.append(f"{getattr(member, '__name__', member)}: {exc}")
        raise ValueError(f"{value!r} is none of ({'; '.join(errors)})")
    if get_origin(hint) is tuple:
        if isinstance(value, str):
            value = [part for part in value.split(",") if part]
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"expected a list, got {value!r}")
        return tuple(_coerce(get_args(hint)[0], item) for item in value)
    if isinstance(hint, type) and issubclass(hint, enum.Enum):
        return hint(value)
    if is_dataclass(hint):
        if isinstance(value, str) and value.startswith("{"):
            value = json.loads(value)
        if not isinstance(value, dict):
            raise ValueError(f"expected a JSON object, got {value!r}")
        return build_config(hint, value)
    if isinstance(value, str) or type(value) is hint or (hint is float and type(value) is int):
        return hint(value)
    raise ValueError(f"expected {hint.__name__}, got {value!r}")
