"""Typed reading of JSON documents into the objects they configure.

A section of a document is read against the fields of a dataclass, or the
annotated parameters of a class's constructor. Its keys are those names,
each value must have its annotated type, and whatever the section leaves
out keeps the default that the dataclass or the constructor states.
Violations are collected, each with its `$.` path, instead of stopping at
the first.

The types understood are bool, int, float (which accepts an int), str,
`Name` (read from its text), lists, tuples, dicts, Optional, dataclasses
(read from objects, recursively) and `Annotated[T, check, ...]`, where
each `check.check(reader, value, path)` adds a check of its own: `Positive`,
`NonNegative`, `NonEmpty`, `OneOf(*choices)` or a caller's. A rule on a
value is stated once, on the field or parameter that the value fills, and
reported at the value's path.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import types
import typing
from typing import Annotated, Any, Union

from .packets import Name

BAD = object()  # what a value that failed its check reads as


class Positive:
    """Type metadata: the value must be greater than zero."""

    @staticmethod
    def check(reader: "Reader", value, path: str) -> None:
        if value <= 0:
            reader.fail(path, "must be positive")


class OneOf:
    """Type metadata: the value must be one of `choices`."""

    def __init__(self, *choices):
        self.choices = choices

    def check(self, reader: "Reader", value, path: str) -> None:
        if value not in self.choices:
            reader.fail(path, f"must be one of {', '.join(map(str, self.choices))}")


class NonNegative:
    """Type metadata: the value must be zero or more."""

    @staticmethod
    def check(reader: "Reader", value, path: str) -> None:
        if value < 0:
            reader.fail(path, "must not be negative")


class NonEmpty:
    """Type metadata: the value must not be empty."""

    @staticmethod
    def check(reader: "Reader", value, path: str) -> None:
        if not value:
            reader.fail(path, "must not be empty")


class Invalid(ValueError):
    """A dataclass's own check failing on the value of one of its fields."""

    def __init__(self, key: str, message: str):
        super().__init__(message)
        self.key = key


@functools.cache
def fields_of(target) -> tuple[dict[str, Any], tuple[str, ...]]:
    """The fields of a dataclass, or the annotated parameters of a class's
    constructor, as name -> type; and the names of those with no default."""
    if dataclasses.is_dataclass(target):
        hints = typing.get_type_hints(target, include_extras=True)
        fields = [f for f in dataclasses.fields(target) if f.init]
        return {f.name: hints[f.name] for f in fields}, tuple(
            f.name
            for f in fields
            if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
        )
    hints = typing.get_type_hints(target.__init__, include_extras=True)
    params = {k: p for k, p in inspect.signature(target).parameters.items() if k in hints}
    required = tuple(k for k, p in params.items() if p.default is p.empty)
    return {k: hints[k] for k in params}, required


@functools.cache
def _parts(hint) -> tuple[Any, tuple]:
    return typing.get_origin(hint), typing.get_args(hint)


class Reader:
    """Reads values into their types, accumulating violations."""

    def __init__(self):
        self.errors: list[str] = []

    def fail(self, path: str, message: str):
        self.errors.append(f"{path}: {message}")
        return BAD

    def is_object(self, value, path: str) -> bool:
        if not isinstance(value, dict):
            self.fail(path, "must be an object")
        return isinstance(value, dict)

    def items(self, value, path: str):
        """(path, item) for each object in the list `value`."""
        if not isinstance(value, list):
            self.fail(path, "must be a list")
            return
        for idx, item in enumerate(value):
            if self.is_object(item, f"{path}[{idx}]"):
                yield f"{path}[{idx}]", item

    def keys(self, obj: dict, path: str, allowed, required=()) -> None:
        for key in obj:
            if key not in allowed:
                self.fail(f"{path}.{key}", "unknown key")
        for key in required:
            if key not in obj:
                self.fail(path, f"missing required key {key!r}")

    def typed(self, value, hint, path: str):
        """`value` read as the type `hint` names, or BAD."""
        origin, args = _parts(hint)
        if hint is Any:
            return value
        if origin is Annotated:
            value = self.typed(value, args[0], path)
            if value is not BAD:
                for check in args[1:]:
                    check.check(self, value, path)
            return value
        if origin in (Union, types.UnionType):  # Optional[X]
            return None if value is None else self.typed(value, args[0], path)
        if origin in (list, tuple, dict):
            if not isinstance(value, dict if origin is dict else list):
                wanted = "an object" if origin is dict else "a list"
                return self.fail(path, f"expected {wanted}, got {type(value).__name__}")
            before = len(self.errors)
            if origin is dict:
                out = {
                    self.typed(k, args[0], f"{path}.{k}"): self.typed(v, args[1], f"{path}.{k}")
                    for k, v in value.items()
                }
            else:
                out = origin(self.typed(v, args[0], f"{path}[{i}]") for i, v in enumerate(value))
            return out if len(self.errors) == before else BAD
        if hint is Name:
            if not isinstance(value, str):
                return self.typed(value, str, path)
            return self.call(path, Name.parse, value)
        if dataclasses.is_dataclass(hint):
            out = self.parse(value, path, hint)
            return BAD if out is None else out
        if not isinstance(value, (int, float) if hint is float else hint) or (
            isinstance(value, bool) and hint is not bool
        ):
            return self.fail(path, f"expected {hint.__name__}, got {type(value).__name__}")
        return value

    def get(self, obj: dict, path: str, key: str, hint, default=None):
        """obj[key] read as the type `hint` names; `default` if absent or wrong."""
        if key not in obj:
            return default
        value = self.typed(obj[key], hint, f"{path}.{key}")
        return default if value is BAD else value

    def fields(self, obj, path: str, target, *, hidden=(), extra=None, required=None, base=None):
        """The values `obj` sets for the fields of `target`, less `hidden`,
        and for the `extra` keys (name -> type), read and laid over `base`.
        The fields `obj` leaves out keep `target`'s defaults. Unless given,
        the required keys are the fields with no default that `base` does
        not set. None if `obj` is not an object."""
        if not self.is_object(obj, path):
            return None
        hints, needed = fields_of(target)
        hints = {k: h for k, h in {**hints, **(extra or {})}.items() if k not in hidden}
        out = dict(base or {})
        if required is None:
            required = [k for k in needed if k not in hidden and k not in out]
        self.keys(obj, path, hints, required)
        for key, hint in hints.items():
            if key in obj and (value := self.typed(obj[key], hint, f"{path}.{key}")) is not BAD:
                out[key] = value
        return out

    def parse(self, obj, path: str, target, **options):
        """`obj` read into a `target` made from `fields`; None if a check fails."""
        since = len(self.errors)
        kwargs = self.fields(obj, path, target, **options)
        if kwargs is None or len(self.errors) > since:
            return None
        out = self.call(path, target, **kwargs)
        return None if out is BAD else out

    def call(self, path: str, make, *args, **kwargs):
        """make(*args, **kwargs), or BAD with the ValueError it raised."""
        try:
            return make(*args, **kwargs)
        except ValueError as exc:
            key = f".{exc.key}" if isinstance(exc, Invalid) else ""
            return self.fail(path + key, str(exc))
