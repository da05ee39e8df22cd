"""Exception types shared across the package."""


class SltError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(SltError):
    pass


class DegenerateRay(SltError):
    """A ray endpoint coincides with its apex, or two rays are antiparallel."""


class AngleOutOfRange(SltError):
    """A polar angle falls outside the cone it is evaluated in."""


class DuplicatePoints(SltError):
    def __init__(self, pairs):
        self.pairs = list(pairs)
        shown = ", ".join(map(str, self.pairs[:10]))
        more = f" and {len(self.pairs) - 10} more" if len(self.pairs) > 10 else ""
        super().__init__(f"duplicate input points at index pairs {shown}{more}")


class EpsOutOfRange(SltError):
    pass


class AngleOverflow(SltError):
    """An angle reached its bound: a core's recursive apex angle pi/2
    before the last level, or a folded surface's total angle pi."""


class DimensionTooSmall(SltError):
    pass


class EmptySurface(SltError):
    pass


class Unreachable(SltError):
    """An input point is not reachable from the root."""


class Disconnected(SltError):
    pass


class MalformedFile(SltError):
    """A points or tree file that breaks its format (the CLI exits 2)."""


class MalformedTree(MalformedFile):
    """A tree file whose edges are not a spanning tree of its vertices."""
