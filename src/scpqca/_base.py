"""What every module builds on: the errors, the one echo, the integer and
ratio readers, and frozen value classes. `model` re-exports every name here.

Every value an error names, from any module, goes through `_echo`: whole up
to 40 characters, else its first 12 and "...". No value is converted whole:
an int or `Fraction` is cut from its leading digits, so one past the
interpreter's int-to-text limit is echoed too, and a list, tuple, set,
frozenset or dict is shown item by item up to the cut, each int in it cut
the same way. Every integer the library is given, from any module, is read
by `as_index`: through `operator.index`, and refused outside its optional
bounds as "{what} must be >= {low}, got {x}" (or "<=").

`frozen` makes a class with annotated fields a value class: built by
position, by keyword and with the class-level defaults, checked by its
`__post_init__`, immutable, equal and hashed over its fields (the hash is
that of the tuple of their values), shown as ``Name(field=value, ...)``.
It writes no method a class defines itself, so the hot classes in `model`
hand-write theirs, and it builds no code at run time. `replace` builds a
changed copy through the constructor, so every check runs again.
"""

from __future__ import annotations

from fractions import Fraction
from operator import index

_set = object.__setattr__
_MISSING = object()  # a field neither given nor defaulted

class ScpqcaError(Exception):
    """Base class for all errors raised by this package."""


class InputError(ScpqcaError, ValueError):
    """Invalid data, parameters, or schema mismatch."""


class UndefinedRatioError(ScpqcaError, ArithmeticError):
    """A consistency/coverage ratio was requested with an empty denominator."""


class VacuousSolutionError(ScpqcaError):
    """No admissible cover and no necessary conditions: nothing to report."""


# Past this many characters an echoed value is cut to its first 12 and "...".
_ECHO_LIMIT = 40

# The containers `_head` shows item by item, with the brackets `repr` puts around their items.
_BRACKETS = {list: ("[", "]"), tuple: ("(", ")"), set: ("{", "}"), frozenset: ("frozenset({", "})"), dict: ("{", "}")}


def _echo(x: object, show=str) -> str:
    """`show(x)`, with `show` `str` or `repr`, cut; no value is converted whole.

    An int or `Fraction` is cut from its leading digits, and a list, tuple,
    set, frozenset or dict is shown item by item as `repr` shows it, up to
    the cut (see `_head`). Shown by `repr`, a str is quoted around its cut.
    """
    if isinstance(x, str):
        if show is repr:
            return repr(_echo(x))
        text = x
    elif show is repr or isinstance(x, int) or type(x) in _BRACKETS:
        text = _head(x)
    elif isinstance(x, Fraction):
        text = _head(x.numerator) + (f"/{_head(x.denominator)}" if x.denominator != 1 else "")
    else:
        text = str(x)
    return text if len(text) <= _ECHO_LIMIT else text[:12] + "..."


def _head(x: object, room: int = _ECHO_LIMIT) -> str:
    """``repr(x)`` exact in its first `room` + 1 characters, and built no further.

    An int is cut from its leading digits: m >= 10**k for k =
    (m.bit_length() - 1) * 30102 // 100000, so dropping its last k - room
    digits leaves its leading ones, over `room`. A container stops at the
    first item that starts past `room`; any other value whose `repr` fails
    (a deque of such an int) is shown by its type name.
    """
    if room < 0:
        return ""
    if isinstance(x, int) and not isinstance(x, bool):
        m = abs(x)
        return ("-" if x < 0 else "") + str(m // 10 ** max(0, (m.bit_length() - 1) * 30102 // 100000 - room))
    if isinstance(x, Fraction):
        return f"Fraction({_head(x.numerator, room)}, {_head(x.denominator, room)})"
    if type(x) not in _BRACKETS or not x:
        try:
            return repr(x)
        except ValueError:  # another container, holding an int past the int-to-text limit
            return f"<{type(x).__name__}>"
    opening, closing = _BRACKETS[type(x)]
    text = opening
    for item in (x.items() if isinstance(x, dict) else x):
        if len(text) > room:
            return text
        text += ", " if text != opening else ""
        if isinstance(x, dict):
            text += _head(item[0], room - len(text)) + ": "
            item = item[1]
        text += _head(item, room - len(text))
    return text + ("," if type(x) is tuple and len(x) == 1 else "") + closing


def as_index(x: object, what: str, low: int | None = None, high: int | None = None) -> int:
    """`x` as an int through `operator.index`, as table level values are read.

    A value without ``__index__`` (a float, a numeric string) raises
    `InputError` naming `what`, never a silent truncation or coercion; so
    does one below `low` or above `high`, when given.
    """
    try:
        value = index(x)
    except TypeError:
        raise InputError(f"{what} must be an integer, got {_echo(x, repr)}") from None
    if low is not None and value < low:
        raise InputError(f"{what} must be >= {low}, got {_echo(value)}")
    if high is not None and value > high:
        raise InputError(f"{what} must be <= {high}, got {_echo(value)}")
    return value


def as_fraction(x: int | float | str | Fraction) -> Fraction:
    """Exact rational from a threshold-like value.

    Floats go through their shortest decimal repr, so ``as_fraction(0.8)``
    is exactly 4/5 rather than the binary float closest to 0.8. Strings may
    be decimals ("0.8") or ratios ("4/5").
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        try:
            return Fraction(repr(x))
        except ValueError:
            raise InputError(f"not a valid ratio: {_echo(x)!r}") from None
    if isinstance(x, str):
        try:
            return Fraction(x.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"not a valid ratio: {_echo(x)!r}") from exc
    raise InputError(f"cannot interpret {type(x).__name__} as a ratio")


# ---------------------------------------------------------------------------
# Frozen value classes


def frozen(cls: type) -> type:
    """`cls` as a value class over its annotated fields, in order (see the module docstring)."""
    names = tuple(cls.__annotations__)
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    checks = hasattr(cls, "__post_init__")

    def __init__(self, *args, **kwargs) -> None:
        if kwargs or len(args) != len(names):
            args = _bind(cls, names, defaults, args, kwargs)
        for name, value in zip(names, args):
            _set(self, name, value)
        if checks:
            self.__post_init__()

    __init__.__qualname__ = f"{cls.__qualname__}.__init__"
    cls._fields = names
    methods = {"__init__": __init__, "__eq__": _eq, "__hash__": _hash, "__repr__": _repr,
               "__setattr__": _assign, "__delattr__": _delete}
    for name, method in methods.items():
        if name not in cls.__dict__:
            setattr(cls, name, method)
    return cls


def _bind(cls: type, names: tuple, defaults: dict, args: tuple, kwargs: dict) -> list:
    """The field values of a call with keywords or defaults, refused as Python refuses a bad call."""
    where = f"{cls.__qualname__}.__init__()"
    if len(args) > len(names):
        raise TypeError(f"{where} takes {len(names)} positional arguments but {len(args)} were given")
    values, missing = list(args), []
    for name in names[len(args):]:
        values.append(kwargs.pop(name, defaults.get(name, _MISSING)))
        if values[-1] is _MISSING:
            missing.append(name)
    for name in kwargs:  # left over: a field given by position too, or no field
        what = "multiple values for" if name in names else "an unexpected keyword"
        raise TypeError(f"{where} got {what} argument {name!r}")
    if missing:
        raise TypeError(f"{where} missing required arguments: {', '.join(map(repr, missing))}")
    return values


def _values(obj) -> tuple:
    return tuple([getattr(obj, name) for name in obj._fields])


def _eq(self, other: object) -> bool:
    return _values(self) == _values(other) if other.__class__ is self.__class__ else NotImplemented


def _hash(self) -> int:
    return hash(_values(self))


def _repr(self) -> str:
    return f"{self.__class__.__qualname__}({', '.join(f'{name}={getattr(self, name)!r}' for name in self._fields)})"


def _assign(self, name: str, value: object) -> None:
    raise AttributeError(f"cannot assign to field {name!r}")


def _delete(self, name: str) -> None:
    raise AttributeError(f"cannot delete field {name!r}")


def replace(obj, /, **changes):
    """A copy of the value object `obj` with `changes` to its fields, built and checked as a new one is."""
    return obj.__class__(**{**{name: getattr(obj, name) for name in obj._fields}, **changes})
