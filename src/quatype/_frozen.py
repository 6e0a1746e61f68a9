"""Immutable value classes without the `dataclasses` module.

Importing `dataclasses` also imports `inspect`, `ast`, `dis` and
`tokenize`: about 11 of the 40 ms a fresh `import quatype` took with
frozen dataclasses (CPython 3.11, `-X importtime`).
"""

from __future__ import annotations

from operator import attrgetter


class Frozen:
    """Base of an immutable value whose fields are its class's annotations.

    A subclass's ``__init__`` checks its arguments and stores them with
    ``_store``, in field order; a field's default can sit on the class, as
    in a dataclass.  Instances are equal, and hash alike, when they are of
    the same class with equal fields; they repr as ``Name(field=value,
    ...)``, refuse assignment and deletion, match positional class
    patterns, and copy and pickle by calling the class on their fields
    again, so its checks rerun.

    The hash is computed from the fields on the first ``hash()`` call and
    cached on the instance (copies and pickles do not carry it), so a
    value whose field is unhashable is still built and compared, and
    refused only when hashed.  Equality tests identity first, so cache
    lookups keyed on a value the caller passes again skip the fields.
    """

    _hash = None

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls.__match_args__ = names = tuple(cls.__annotations__)
        get = attrgetter(*names)
        if len(names) == 1:  # then attrgetter returns the bare value
            cls._values = lambda self: (get(self),)
        else:
            cls._values = lambda self: get(self)

    def _store(self, *values) -> None:
        for name, value in zip(self.__match_args__, values, strict=True):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other is self:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash(self._values())
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}"
                           for name, value in zip(self.__match_args__, self._values()))
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
