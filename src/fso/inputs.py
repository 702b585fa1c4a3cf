"""Reading user files: one error type and typed access to JSON fields.

Every fso input is a file a person wrote.  Whatever is wrong with its content
raises an InputError whose message names the file and, where one applies, the
line or the field path, such as ``community.children[1].members[0].id``.
What the files are read into, the value types that validate their fields,
share ``Record``.
"""

from __future__ import annotations

import json
from contextlib import contextmanager

_REQUIRED = object()
_KINDS = {str: "a string", list: "a list", dict: "a JSON object", bool: "a boolean"}


class InputError(ValueError):
    """Malformed user input; ``str()`` starts with the file when known."""

    def __init__(self, message: str, file=None):
        super().__init__(message)
        self.file = file

    def __str__(self) -> str:
        message = super().__str__()
        return message if self.file is None else f"{self.file}: {message}"


class Record:
    """A value type whose fields are its ``__slots__``, set by its ``__init__``.

    A record equals a record of its own type with equal fields, hashes as the
    tuple of them and shows them in its repr.  ``_replace(**changes)`` is a
    changed copy built by ``__init__``, so its checks run again.  A type whose
    fields change, such as an overlay's status, sets ``__hash__ = None``; no
    other record is changed after ``__init__``, though its slots would allow it.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def _replace(self, **changes):
        return type(self)(**dict(zip(self.__slots__, self._values()), **changes))

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


@contextmanager
def reading(path):
    """Name ``path`` in an InputError raised inside that names no file yet."""
    try:
        yield
    except InputError as exc:
        exc.file = path if exc.file is None else exc.file
        raise


def read_text(path) -> str:
    """The text of the file ``path``, a ``str`` as the user gave it or a ``Path``,
    without one leading byte-order mark: a file saved with one reads as without it."""
    name = str(path)
    if "\0" in name:  # open() would raise a bare ValueError
        raise InputError("the file name holds a NUL character", repr(name))
    if not name:  # Path("") would read as ".", the working directory
        raise InputError("the file name is empty", repr(name))
    try:
        fh = open(path, encoding="utf-8")
    except IsADirectoryError:
        raise InputError("is a directory, not a file", path) from None
    with fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise InputError(f"not UTF-8 text: {exc.reason}", path) from None
    return text[1:] if text.startswith("\ufeff") else text


def read_json(path):
    text = read_text(path)
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad syntax, a huge integer, deep nesting
        raise InputError(f"invalid JSON: {exc}", path) from None


def get_field(data, key: str, kind: type, where: str = "", index: int | None = None,
              default=_REQUIRED, items: type | None = None):
    """``data[key]`` checked to be a ``kind``, or ``default`` when absent.

    ``data`` sits at ``where`` (``where[index]`` for a list item); ``items``
    types every list element.  Else an InputError names the path, built then.
    """
    if type(data) is dict:
        value = data.get(key, default)
        if type(value) is kind:
            for item in value if items else ():
                if type(item) is not items:
                    break
            else:
                return value
        elif value is default is not _REQUIRED:
            return value
    where = where if index is None else f"{where}[{index}]"
    if type(data) is not dict:
        raise InputError(f"{where} must be {_KINDS[dict]}, got {type(data).__name__}")
    path = f"{where}.{key}" if where else key
    if value is _REQUIRED:
        raise InputError(f"missing field {path}")
    if type(value) is kind:  # an element has the wrong type
        bad = next(i for i, item in enumerate(value) if type(item) is not items)
        path, kind, value = f"{path}[{bad}]", items, value[bad]
    raise InputError(f"{path} must be {_KINDS[kind]}, got {type(value).__name__}")


def check_document(data, kind: str, keys: frozenset[str]) -> None:
    """Refuse a ``kind`` document that is not a JSON object or has keys outside ``keys``."""
    if type(data) is not dict:
        raise InputError(f"{kind} must be {_KINDS[dict]}, got {type(data).__name__}")
    if not keys.issuperset(data):
        raise InputError(f"unknown {kind} keys: {sorted(data.keys() - keys)}")


def check_keys(data, allowed: frozenset[str], where: str, index: int | None = None) -> None:
    """Refuse the keys of the JSON object ``data`` that ``allowed`` lacks.

    ``data`` sits at ``where`` (``where[index]`` for a list item).  Anything
    but an object passes, for ``get_field`` to refuse.
    """
    if type(data) is dict and not allowed.issuperset(data):
        where = where if index is None else f"{where}[{index}]"
        raise InputError(f"{where}: unknown keys {sorted(data.keys() - allowed)}")
