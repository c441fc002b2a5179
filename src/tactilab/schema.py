"""Record schemas: the field parses that the config and the catalog declare,
and the one reader that builds a record from a mapping.

A record is a dataclass whose fields are declared with :func:`parsed`, each
with ``parse(name, raw value)``, which returns the field's value or raises
:class:`SchemaError` naming the field. The record's ``__post_init__`` is
:func:`parse_fields`, so a record built directly is checked the same way as
one read from a file. One rule per kind:

- integer: an ``int``, or a float holding a whole number, of magnitude at
  most 2**53, below which a float holds every integer exactly;
- number: an ``int`` or ``float`` within the field's bound;
- string: a ``str``.

Integers and numbers are finite as floats. A bool is of no kind.
"""

from __future__ import annotations

import math
import sys
from dataclasses import MISSING, field, fields
from enum import Enum

from .errors import SchemaError

#: The largest magnitude an integer may have.
_MAX_WHOLE = 2**53


def parsed(parse, default=MISSING):
    """A record field read by ``parse``; a field without a default must be
    given."""
    return field(default=default, metadata={"parse": parse})


def declared(cls) -> tuple:
    """The record's fields that declare a parse, in declaration order."""
    return tuple(f for f in fields(cls) if "parse" in f.metadata)


def parse_fields(record) -> None:
    """Replace each declared field of ``record`` by its parse (records may be
    frozen)."""
    for f in declared(record):
        object.__setattr__(record, f.name, f.metadata["parse"](f.name, getattr(record, f.name)))


def read_record(cls, raw, where: str = "", **given):
    """The ``cls`` record of the mapping ``raw`` of declared fields, plus the
    undeclared fields ``given``. The SchemaError for an unknown, missing or
    ill-typed field names it after ``where``."""
    if not isinstance(raw, dict):
        raise SchemaError(f"{where}must be a mapping, got {raw!r}")
    spec = declared(cls)
    unknown = set(raw) - {f.name for f in spec}
    if unknown:
        raise SchemaError(f"{where}unknown field(s) {sorted(unknown)}")
    missing = [f.name for f in spec if f.default is MISSING and f.name not in raw]
    if missing:
        raise SchemaError(f"{where}missing field(s) {missing}")
    try:
        return cls(**raw, **given)
    except SchemaError as exc:
        raise SchemaError(f"{where}{exc}") from exc


def _real(name: str, value, kind: str):
    """``value`` if it is an int or a float, and finite as a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{name} must be {kind}, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # NaN, the infinities, and ints past them
        raise SchemaError(f"{name} must be finite, got {value!r}")
    return value


def _integer(name: str, value, kind: str) -> int:
    if _real(name, value, kind) != int(value):
        raise SchemaError(f"{name} must be {kind}, got {value!r}")
    if abs(value) > _MAX_WHOLE:
        raise SchemaError(f"{name} must be {kind} of magnitude at most 2**53, got {value!r}")
    return int(value)


def integer(name: str, value) -> int:
    return _integer(name, value, "an integer")


def at_least(low: int):
    """An integer >= ``low``."""

    def parse(name: str, value) -> int:
        value = _integer(name, value, f"an integer >= {low}")
        if value < low:
            raise SchemaError(f"{name} must be >= {low}, got {value}")
        return value

    return parse


def number(low: float = -math.inf, high: float = math.inf, *, strict: bool = False):
    """A number in [``low``, ``high``]; with ``strict``, above ``low``."""

    def parse(name: str, value) -> float:
        _real(name, value, "a number")
        if value < low or value > high or (strict and value == low):
            if high < math.inf:
                bound = f"lie in [{low}, {high}]"
            else:
                bound = f"be {'>' if strict else '>='} {low}"
            raise SchemaError(f"{name} must {bound}, got {value!r}")
        return float(value)

    return parse


def string(name: str, value) -> str:
    if not isinstance(value, str):
        raise SchemaError(f"{name} must be a string, got {value!r}")
    return value


def choice(kind: type[Enum]):
    def parse(name: str, value) -> Enum:
        try:
            return kind(value)
        except ValueError as exc:
            raise SchemaError(f"{name}: {exc}") from exc

    return parse


def flag(name: str, value) -> bool:
    if not isinstance(value, bool):
        raise SchemaError(f"{name} must be true or false, got {value!r}")
    return value
