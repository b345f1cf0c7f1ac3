"""Typed reading of JSON documents into the objects they configure.

A section of a document is read against the fields of a `Record`, or the
annotated parameters of a class's constructor. Its keys are those names,
each value must have its annotated type, and whatever the section leaves
out keeps the default that the record type or the constructor states.
Violations are collected, each with its `$.` path, instead of stopping at
the first.

The types understood are bool, int, float (which accepts an int), str,
`Name` (read from its text), lists, tuples, dicts, Optional, records
(read from objects, recursively) and `Annotated[T, check, ...]`, where
each `check.check(reader, value, path)` adds a check of its own: `Positive`,
`NonNegative`, `AtMost(limit)`, `NonEmpty`, `OneOf(*choices)` or a
caller's. A rule on a value is stated once, on the field or parameter that
the value fills, and reported at the value's path.

A type declares its fields as a `Record`: one annotated class attribute per
field, in order, set to its default if any (`Factory(make)`: made afresh).
The base reads the names as the class is made and generates no code, which
keeps `dataclasses` and `inspect` out of start-up.
"""

from __future__ import annotations

import functools
import types
import typing
from typing import Annotated, Any, Union

from . import packets  # for `Name`, which is defined after packets imports `Record`

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
    """A record's own check failing on the value of one of its fields."""

    def __init__(self, key: str, message: str):
        super().__init__(message)
        self.key = key


class Record:
    """Keyword or positional construction (then any `__post_init__`), `replace`,
    equality and repr over the declared fields. Class keywords: `frozen` (no
    assignment, hashed by the fields); `not_compared`, `not_shown` field names."""

    __slots__ = ()

    def __init_subclass__(cls, frozen=False, not_compared=(), not_shown=(), **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        slots = cls.__dict__.get("__slots__", ())
        cls._defaults = {k: v for k, v in vars(cls).items() if k in cls._fields and k not in slots}
        cls._compared = tuple(k for k in cls._fields if k not in not_compared)
        cls._shown = tuple(k for k in cls._fields if k not in not_shown)
        if frozen:
            cls.__setattr__ = cls.__delattr__ = Record._immutable
        elif "__hash__" not in cls.__dict__:
            cls.__hash__ = None  # mutable and compared by value

    def __init__(self, *args, **kwargs):
        cls, given = type(self), dict(zip(self._fields, args), **kwargs)
        if len(given) < len(args) + len(kwargs) or not given.keys() <= set(cls._fields):
            raise TypeError(f"{cls.__name__}() takes the fields {', '.join(cls._fields)}")
        for key in cls._fields:  # one at a time: filling `__dict__` would slow later reads
            if key not in given:
                if key not in cls._defaults:
                    raise TypeError(f"{cls.__name__}() is missing {key!r}")
                default = cls._defaults[key]
                given[key] = default.make() if isinstance(default, Factory) else default
            object.__setattr__(self, key, given[key])
        if hasattr(cls, "__post_init__"):
            self.__post_init__()

    def _immutable(self, name, *value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def replace(self, **changes):
        """A new instance, made by the constructor, with `changes` to the fields."""
        return type(self)(**{**{key: getattr(self, key) for key in self._fields}, **changes})

    def _compared_values(self) -> tuple:
        return tuple([getattr(self, key) for key in self._compared])

    def __eq__(self, other):
        same = other.__class__ is self.__class__
        return self._compared_values() == other._compared_values() if same else NotImplemented

    def __hash__(self):
        return hash(self._compared_values())

    def __repr__(self):
        shown = ", ".join(f"{key}={getattr(self, key)!r}" for key in self._shown)
        return f"{type(self).__qualname__}({shown})"


class Factory(Record, frozen=True):
    """A field default made afresh for each instance, by `make()`."""

    make: Any


class AtMost(Record, frozen=True):
    """Type metadata: the value must not exceed `limit`."""

    limit: int

    def check(self, reader: "Reader", value, path: str) -> None:
        if value > self.limit:
            reader.fail(path, f"must be at most {self.limit}")


@functools.cache
def fields_of(target) -> tuple[dict[str, Any], tuple[str, ...]]:
    """The fields of a record type, or the annotated parameters of a class's
    constructor, as name -> type; and the names of those with no default."""
    if issubclass(target, Record):
        hints = typing.get_type_hints(target, include_extras=True)
        names, defaults = target._fields, target._defaults
    else:
        init = target.__init__
        hints = typing.get_type_hints(init, include_extras=True)
        code, n = init.__code__, init.__code__.co_argcount - 1  # positional, after self
        names = code.co_varnames[1 : 1 + n + code.co_kwonlyargcount]
        defaults = {*names[n - len(init.__defaults__ or ()) : n], *(init.__kwdefaults__ or ())}
    names = [k for k in names if k in hints]
    return {k: hints[k] for k in names}, tuple(k for k in names if k not in defaults)


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
                out, first = {}, {}  # read key -> the first text that read as it
                for k, v in value.items():
                    key = self.typed(k, args[0], f"{path}.{k}")
                    if key is not BAD and first.setdefault(key, k) != k:
                        self.fail(f"{path}.{k}", f"repeats the key {first[key]!r}")
                    out[key] = self.typed(v, args[1], f"{path}.{k}")
            else:
                out = origin(self.typed(v, args[0], f"{path}[{i}]") for i, v in enumerate(value))
            return out if len(self.errors) == before else BAD
        if hint is packets.Name:
            if not isinstance(value, str):
                return self.typed(value, str, path)
            return self.call(path, packets.Name.parse, value)
        if isinstance(hint, type) and issubclass(hint, Record):
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
