"""The one base of p3p's immutable value types.

A subclass lists its constructor arguments in ``_fields``; they are set in
that order, positionally or by keyword, and are the only attributes
compared and hashed. ``_shown`` picks the fields that ``repr`` prints
(default: all of them). A type that derives more attributes overrides
``__init__``, calls this one and then ``_set_derived``; derived attributes
stay out of equality, hashing and ``repr``.

Instances keep their attributes in ``__dict__`` and have no ``__slots__``:
``pickle`` and ``copy`` then restore an instance by updating that dict,
which needs no ``__setattr__``. Assignment and deletion raise
AttributeError. Written by hand because the standard library's record
generator imports ``inspect`` and builds each class from generated source,
about 12 ms of every command's start-up.
"""


class Record:
    _fields: tuple[str, ...] = ()
    _shown: tuple[str, ...] | None = None  # None: every field

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._fields):
            args = self._bind(args, kwargs)
        self.__dict__.update(zip(self._fields, args))

    def _bind(self, args: tuple, kwargs: dict) -> tuple:
        """The field values in order, from any mix of positional and keyword
        arguments; TypeError for a missing, unknown or repeated one."""
        name = type(self).__name__
        if len(args) > len(self._fields):
            raise TypeError(f"{name}() takes {len(self._fields)} arguments, got {len(args)}")
        values = dict(zip(self._fields, args))
        for key, value in kwargs.items():
            if key not in self._fields or key in values:
                raise TypeError(f"{name}() got an unexpected or repeated argument {key!r}")
            values[key] = value
        missing = [key for key in self._fields if key not in values]
        if missing:
            raise TypeError(f"{name}() missing arguments: {', '.join(missing)}")
        return tuple(values[key] for key in self._fields)

    def _set_derived(self, **values) -> None:
        self.__dict__.update(values)

    def _values(self) -> tuple:
        return tuple(self.__dict__[key] for key in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        shown = self._fields if self._shown is None else self._shown
        args = ", ".join(f"{key}={self.__dict__[key]!r}" for key in shown)
        return f"{type(self).__qualname__}({args})"
