"""Exception types shared across the package, and ``Frozen``.

Every error reports itself: ``report()`` is the CLI's JSON error object, with
the error's kind (its class name), its message and its extra fields
(witnesses, indices, paths), and ``exit_code`` is the CLI's exit status.
"""


class Frozen:
    """Base of the package's immutable types: assigning or deleting an
    attribute raises AttributeError.  Each ``__init__`` writes its fields
    into the instance ``__dict__``, where ``cached_property`` keeps its
    values too."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {type(self).__name__}.{name}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {type(self).__name__}.{name}")


class TopocertError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1

    def __init__(self, message: str = "", **fields):
        super().__init__(message)
        self.fields = fields

    @property
    def kind(self) -> str:
        """The class name; "Error" for this base class."""
        return "Error" if type(self) is TopocertError else type(self).__name__

    def report(self) -> dict:
        """The CLI's JSON error object."""
        return {"kind": self.kind, "message": str(self), **self.fields}


def _witness_pair(a, b) -> list:
    return [sorted(map(str, a)), sorted(map(str, b))]


class TopologyError(TopocertError):
    """A proposed finite topology violates one of the topology axioms."""


class DuplicatePoint(TopologyError):
    def __init__(self, point):
        super().__init__(f"duplicate point identifier: {point!r}",
                         point=repr(point))


class UnknownPoint(TopologyError):
    def __init__(self, point):
        super().__init__(f"set mentions a point outside the space: {point!r}",
                         point=repr(point))


class MissingEmpty(TopologyError):
    def __init__(self):
        super().__init__("the empty set is not among the opens")


class MissingWhole(TopologyError):
    def __init__(self):
        super().__init__("the full point set is not among the opens")


class NotClosedUnderUnion(TopologyError):
    def __init__(self, witness_a, witness_b):
        self.witness = (witness_a, witness_b)
        super().__init__(
            f"union of opens {sorted(witness_a)} and {sorted(witness_b)} is not open",
            witness=_witness_pair(witness_a, witness_b),
        )


class NotClosedUnderIntersection(TopologyError):
    def __init__(self, witness_a, witness_b):
        self.witness = (witness_a, witness_b)
        super().__init__(
            f"intersection of opens {sorted(witness_a)} and {sorted(witness_b)}"
            " is not open",
            witness=_witness_pair(witness_a, witness_b),
        )


class NotACover(TopocertError):
    """The given family fails to cover the space/domain."""

    exit_code = 5

    def __init__(self, witness: str):
        self.witness = witness
        super().__init__(f"not a cover: {witness} is uncovered", witness=witness)


class EmptyMember(TopocertError):
    """A cover member denotes the empty set."""

    def __init__(self, index: int):
        super().__init__(f"cover member {index} is empty", index=index)


class InvalidArrangement(TopocertError):
    """A geometric cover specification is malformed (not open, out of bounds...)."""


class NotAcyclic(TopocertError):
    """An operation that needs an acyclic digraph received a cyclic one."""

    def __init__(self, cycle):
        cycle = list(cycle)
        super().__init__(f"digraph contains a cycle: {cycle}", cycle=cycle)


class CapExceeded(TopocertError):
    """A configured size cap would be exceeded."""

    exit_code = 4

    def __init__(self, what: str, limit: int, requested):
        super().__init__(f"{what}: requested {requested}, cap is {limit}",
                         what=what, limit=limit, requested=requested)


class LevelMismatch(TopocertError):
    """Two fingerprint sets with different level or size scope were compared."""


class NotExhaustible(TopocertError):
    """Neither side of a certificate search admits exhaustive enumeration."""

    def __init__(self, side: str):
        super().__init__(
            f"side {side!r} only provides witness covers; at least one side must be"
            " exhaustively enumerable",
            side=side,
        )


class ParseError(TopocertError):
    """An input file could not be parsed or validated; ``fields`` keeps the
    extra fields of the error found in it."""

    exit_code = 3

    def __init__(self, path: str, detail: str, **fields):
        super().__init__(f"{path}: {detail}", path=path, detail=detail, **fields)
