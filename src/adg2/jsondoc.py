"""Path-aware readers of JSON documents, on the standard library alone so
that the exact half reads its documents without numpy.

/dims/base names the member base of the member dims, /values/26 the element
26 of the array values and / the document.  A reader returns the value it
checks, unchanged, or raises a ValueError with one wording per failure:
"/rank is missing", "/Q has 21 entries, expected 22" or "/dims must be an
object, got [3]" (an array, an integer, a number, a finite number, a
boolean); reprlib.repr cuts a long rejected value short.  A value of another
kind is rejected, never converted, and NaN and +-Infinity are not finite.  A
range check made after the readers, such as a constructor's, gets the path
put in front of its message (at)."""

import reprlib
import sys


def _kind(ok: bool, value, path: str, kind: str):
    if not ok:
        raise ValueError(f"{path} must be {kind}, got {reprlib.repr(value)}")
    return value


def obj(value, path: str) -> dict:
    return _kind(type(value) is dict, value, path, "an object")


def array(value, path: str, length: int | None = None) -> list:
    """value, an array of the given length, or of any length when None."""
    _kind(type(value) is list, value, path, "an array")
    if length is not None and len(value) != length:
        raise ValueError(f"{path} has {len(value)} entries, expected {length}")
    return value


def integer(value, path: str) -> int:
    return _kind(type(value) is int, value, path, "an integer")


def integers(value, path: str) -> list:
    for n, v in enumerate(array(value, path)):
        integer(v, f"{path}/{n}")
    return value


def number(value, path: str):
    _kind(type(value) in (int, float), value, path, "a number")
    # false for NaN, +-Infinity and an integer beyond the float range
    return _kind(abs(value) <= sys.float_info.max, value, path, "a finite number")


def numbers(value, path: str, shape: tuple) -> list:
    """value, a rectangular array of finite numbers nested one level per
    entry of shape, that level's length (any length when None)."""
    for n, v in enumerate(array(value, path, shape[0])):
        if len(shape) > 1:
            numbers(v, f"{path}/{n}", shape[1:])
        elif type(v) is not float or v - v:  # v - v is nan unless v is finite
            number(v, f"{path}/{n}")
    return value


def boolean(value, path: str) -> bool:
    return _kind(type(value) is bool, value, path, "a boolean")


def member(parent, path: str, default=None):
    """The member of the object parent named by the last key of path, or
    default, unless it is None, if parent has no such member."""
    head, _, key = path.rpartition("/")
    if key in obj(parent, head or "/"):
        return parent[key]
    if default is None:
        raise ValueError(f"{path} is missing")
    return default


def at(path: str, check, *args):
    """check(*args), with path put in front of the message of its ValueError."""
    try:
        return check(*args)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
