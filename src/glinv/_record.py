"""Base of the public records: immutable, slotted, compared by their fields.

A record subclasses _Record, declares __slots__ as its field names in order,
and may give defaults in _defaults and a check in _check, which runs after the
fields are set and may store normalized values with object.__setattr__. The
tuple of the fields is kept in the slot _key: two records are equal when they
have the same class and equal keys, a record hashes as its key, its repr reads
Name(field=value, ...), and copy and pickle rebuild it through the
constructor. Cls._trusted(*fields) builds a record without the check, for
fields that meet it by construction: it sets the slots and _key as the
constructor does.
"""


class _Record:
    __slots__ = ("_key",)
    _defaults: dict = {}

    def __init_subclass__(cls):
        # __init__ and _trusted are generated per record, as dataclasses
        # generates __init__, and call each slot's own setter: a loop over
        # the fields would double the cost of building a record
        names = cls.__match_args__ = cls.__slots__
        scope = {f"set{n}": getattr(cls, n).__set__ for n in (*names, "_key")}
        scope.update(new=object.__new__, cls=cls)
        params = "".join(f", {n}={cls._defaults[n]!r}" if n in cls._defaults else f", {n}"
                         for n in names)
        sets = "".join(f"set{n}(self, {n}); " for n in names)
        fields = "".join(f"{n}, " for n in names)
        key = "".join(f"self.{n}, " for n in names)
        exec(f"def __init__(self{params}):\n {sets}self._check(); set_key(self, ({key}))\n"
             f"def _trusted({params[2:]}):\n self = new(cls); {sets}"
             f"set_key(self, ({fields})); return self", scope)
        cls.__init__ = scope["__init__"]
        cls._trusted = staticmethod(scope["_trusted"])
        for name in ("__init__", "_trusted"):
            scope[name].__qualname__ = f"{cls.__qualname__}.{name}"

    def _check(self):
        pass

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key == other._key
        return NotImplemented

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self.__slots__, self._key))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._key

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__
