"""Exception hierarchy shared by all domroots modules."""


class DomRootsError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(DomRootsError):
    """An argument is outside the mathematical domain of an operation."""


class CapacityError(DomRootsError):
    """An input exceeds a documented implementation cap."""


class Graph6ParseError(DomRootsError):
    """Malformed graph6 text.  ``offset`` is the byte position of the fault."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class EndpointRootError(DomRootsError):
    """A queried interval endpoint is a root of the square-free part.

    Raised by :func:`~domroots.realroots.count_roots_in`; it is signalled
    distinctly so it is never confused with a genuine domain error.
    Isolation counts through root endpoints and never raises it.
    """


class BudgetExhaustedError(DomRootsError):
    """The witness search ran out of budget.

    This never claims that no witness exists; ``frontier`` records how far the
    diagonal search got before giving up.
    """

    def __init__(self, message: str, frontier: dict):
        super().__init__(message)
        self.frontier = frontier


class InternalInvariantError(DomRootsError):
    """Two routes that must agree disagreed; indicates a bug, not bad input."""
