"""Exception types shared across the package.

Every error carries enough structure (witnesses, indices, paths) for the CLI
to render a machine-readable report.
"""


class TopocertError(Exception):
    """Base class for all errors raised by this package."""

    kind = "Error"

    def payload(self) -> dict:
        """Extra fields merged into the CLI's JSON error object."""
        return {}


class TopologyError(TopocertError):
    """A proposed finite topology violates one of the topology axioms."""


class DuplicatePoint(TopologyError):
    kind = "DuplicatePoint"

    def __init__(self, point):
        self.point = point
        super().__init__(f"duplicate point identifier: {point!r}")

    def payload(self):
        return {"point": repr(self.point)}


class UnknownPoint(TopologyError):
    kind = "UnknownPoint"

    def __init__(self, point):
        self.point = point
        super().__init__(f"set mentions a point outside the space: {point!r}")

    def payload(self):
        return {"point": repr(self.point)}


class MissingEmpty(TopologyError):
    kind = "MissingEmpty"

    def __init__(self):
        super().__init__("the empty set is not among the opens")


class MissingWhole(TopologyError):
    kind = "MissingWhole"

    def __init__(self):
        super().__init__("the full point set is not among the opens")


class NotClosedUnderUnion(TopologyError):
    kind = "NotClosedUnderUnion"

    def __init__(self, witness_a, witness_b):
        self.witness = (witness_a, witness_b)
        super().__init__(
            f"union of opens {sorted(witness_a)} and {sorted(witness_b)} is not open"
        )

    def payload(self):
        a, b = self.witness
        return {"witness": [sorted(map(str, a)), sorted(map(str, b))]}


class NotClosedUnderIntersection(TopologyError):
    kind = "NotClosedUnderIntersection"

    def __init__(self, witness_a, witness_b):
        self.witness = (witness_a, witness_b)
        super().__init__(
            f"intersection of opens {sorted(witness_a)} and {sorted(witness_b)}"
            " is not open"
        )

    def payload(self):
        a, b = self.witness
        return {"witness": [sorted(map(str, a)), sorted(map(str, b))]}


class NotACover(TopocertError):
    """The given family fails to cover the space/domain."""

    kind = "NotACover"

    def __init__(self, witness: str):
        self.witness = witness
        super().__init__(f"not a cover: {witness} is uncovered")

    def payload(self):
        return {"witness": self.witness}


class EmptyMember(TopocertError):
    """A cover member denotes the empty set."""

    kind = "EmptyMember"

    def __init__(self, index: int):
        self.index = index
        super().__init__(f"cover member {index} is empty")

    def payload(self):
        return {"index": self.index}


class InvalidArrangement(TopocertError):
    """A geometric cover specification is malformed (not open, out of bounds...)."""

    kind = "InvalidArrangement"


class NotAcyclic(TopocertError):
    """An operation that needs an acyclic digraph received a cyclic one."""

    kind = "NotAcyclic"

    def __init__(self, cycle):
        self.cycle = tuple(cycle)
        super().__init__(f"digraph contains a cycle: {list(self.cycle)}")

    def payload(self):
        return {"cycle": list(self.cycle)}


class CapExceeded(TopocertError):
    """A configured size cap would be exceeded."""

    kind = "CapExceeded"

    def __init__(self, what: str, limit: int, requested):
        self.what = what
        self.limit = limit
        self.requested = requested
        super().__init__(f"{what}: requested {requested}, cap is {limit}")

    def payload(self):
        return {"what": self.what, "limit": self.limit, "requested": self.requested}


class LevelMismatch(TopocertError):
    """Two fingerprint sets with different level or size scope were compared."""

    kind = "LevelMismatch"

    def __init__(self, detail: str):
        super().__init__(detail)


class NotExhaustible(TopocertError):
    """Neither side of a certificate search admits exhaustive enumeration."""

    kind = "NotExhaustible"

    def __init__(self, side: str):
        self.side = side
        super().__init__(
            f"side {side!r} only provides witness covers; at least one side must be"
            " exhaustively enumerable"
        )

    def payload(self):
        return {"side": self.side}


class ParseError(TopocertError):
    """An input file could not be parsed or validated."""

    kind = "ParseError"

    def __init__(self, path: str, detail: str):
        self.path = path
        self.detail = detail
        super().__init__(f"{path}: {detail}")

    def payload(self):
        return {"path": self.path, "detail": self.detail}
