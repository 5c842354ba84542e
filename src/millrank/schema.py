"""A JSON schema checker for exactly the draft-07 keywords the report schema uses.

Known keywords, with draft-07 semantics: ``$schema`` and ``$defs``
(annotation and container, never checked), ``$ref`` (a JSON pointer
from the root; a reference ignores its siblings), ``type``, ``const``,
``enum``, ``required``, ``properties``, ``additionalProperties`` (false
only), ``items`` (one schema for every item), ``minimum``,
``minProperties``, ``maxProperties``, ``allOf``, ``oneOf`` (exactly one
branch matches), ``if`` and ``then``. A schema that uses any other
keyword fails with ``KeyError`` when the checker reaches it.

As draft 07 reads JSON, a bool is never an integer but an integral
float is one, and ``const`` and ``enum`` tell True from 1.
"""

from __future__ import annotations

import reprlib

__all__ = ["ValidationError", "validate"]


class ValidationError(Exception):
    """A document breaks its schema: a fault of the program that built it, not of its input."""


def validate(document, schema) -> None:
    """Raise :class:`ValidationError` unless ``document`` matches ``schema``."""
    problem = _error(document, schema, schema)
    if problem:
        raise ValidationError("document" + problem)


def _error(value, schema, root):
    """The first way ``value`` breaks ``schema``, as text located from ``value``, or None."""
    if "$ref" in schema:
        target = root
        for part in schema["$ref"].removeprefix("#/").split("/"):
            target = target[part.replace("~1", "/").replace("~0", "~")]
        return _error(value, target, root)
    for keyword, argument in schema.items():
        if keyword in ("$schema", "$defs", "then"):  # "then" is read with "if"
            continue
        if keyword == "properties":
            problem = isinstance(value, dict) and _first(
                _at(key, _error(value[key], sub, root))
                for key, sub in argument.items()
                if key in value
            )
        elif keyword == "items":
            problem = isinstance(value, list) and _first(
                _at(i, _error(item, argument, root)) for i, item in enumerate(value)
            )
        elif keyword == "allOf":
            problem = _first(_error(value, branch, root) for branch in argument)
        elif keyword == "if":
            passed = "then" in schema and not _error(value, argument, root)
            problem = passed and _error(value, schema["then"], root)
        elif _BROKEN[keyword](value, argument, schema, root):
            problem = f": {reprlib.repr(value)} fails {keyword} {reprlib.repr(argument)}"
        else:
            continue
        if problem:
            return problem
    return None


def _first(problems):
    return next(filter(None, problems), None)


def _at(label, problem):
    return problem and (f"[{label}]" if isinstance(label, int) else f".{label}") + problem


def _number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _equal(one, two):
    return one == two and isinstance(one, bool) == isinstance(two, bool)


_TYPES = {
    "object": lambda value: isinstance(value, dict),
    "array": lambda value: isinstance(value, list),
    "string": lambda value: isinstance(value, str),
    "boolean": lambda value: isinstance(value, bool),
    "null": lambda value: value is None,
    "integer": lambda value: _number(value) and (isinstance(value, int) or value.is_integer()),
}

# Keywords that judge the value alone: keyword -> test(value, argument, schema, root),
# true when the value breaks the keyword.
_BROKEN = {
    "type": lambda value, name, *_: not _TYPES[name](value),
    "const": lambda value, expected, *_: not _equal(value, expected),
    "enum": lambda value, options, *_: not any(_equal(value, option) for option in options),
    "required": lambda value, keys, *_: isinstance(value, dict) and any(k not in value for k in keys),
    "additionalProperties": lambda value, _, schema, __: isinstance(value, dict)
    and not value.keys() <= schema.get("properties", {}).keys(),
    "minimum": lambda value, bound, *_: _number(value) and value < bound,
    "minProperties": lambda value, bound, *_: isinstance(value, dict) and len(value) < bound,
    "maxProperties": lambda value, bound, *_: isinstance(value, dict) and len(value) > bound,
    "oneOf": lambda value, branches, _, root: sum(not _error(value, b, root) for b in branches) != 1,
}
