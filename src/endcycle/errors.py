"""Exception types shared across the package.

Everything raised on purpose derives from EndcycleError so callers can
catch one base class. InternalError marks invariant violations that should
never happen on valid inputs; the CLI maps it to a distinct exit code.
"""


class EndcycleError(Exception):
    """Base class for all deliberate errors."""


class FormatError(EndcycleError):
    """A text input (graph, vector, chain, pair, certificate) failed to parse."""

    def __init__(self, message, line=None):
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)
        self.line = line


class LoopEdge(EndcycleError):
    """An edge class whose two endpoints coincide."""


class UnknownVertexClass(EndcycleError):
    pass


class BadOffset(EndcycleError):
    pass


class InfiniteComponents(EndcycleError):
    """The description repeats a component pattern with no attachment,
    so the graph would have infinitely many isomorphic components."""


class UnknownVertex(EndcycleError):
    pass


class UnknownEdge(EndcycleError):
    pass


class NotARay(EndcycleError):
    pass


class UnknownEnd(EndcycleError):
    pass


class GraphMismatch(EndcycleError):
    """Two objects built over different graphs were combined."""


class NotThin(EndcycleError):
    """A family hits some edge instance infinitely often."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class NotRepresentable(EndcycleError):
    """The exact answer exists but leaves the finite-plus-constant-tails
    vector format (or the shift-periodic chain format)."""


class NotInCycleSpace(EndcycleError):
    """Raised by decompose. Carries the violated cut as a certificate."""

    def __init__(self, cut, cut_sum):
        super().__init__(
            "vector is not in the cycle space: cut sum %d on %s" % (cut_sum, cut)
        )
        self.cut = cut
        self.cut_sum = cut_sum


class InfiniteBoundarySupport(EndcycleError):
    def __init__(self, message, witness_class=None):
        super().__init__(message)
        self.witness_class = witness_class


class NotAdmissible(EndcycleError):
    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class NonzeroBoundary(EndcycleError):
    def __init__(self, witness, coefficient):
        super().__init__(
            "boundary is nonzero: coefficient %d at %s" % (coefficient, witness.label())
        )
        self.witness = witness
        self.coefficient = coefficient


class NotACycle(EndcycleError):
    """Raised by homology_class on a chain whose edge vector fails the cut
    criterion. Carries the same certificate a membership check would."""

    def __init__(self, cut, cut_sum):
        super().__init__(
            "chain is not a cycle: cut sum %d on %s" % (cut_sum, cut)
        )
        self.cut = cut
        self.cut_sum = cut_sum


class NotAdmissiblePair(EndcycleError):
    pass


class BadDimension(EndcycleError):
    pass


class InternalError(EndcycleError):
    """An internal invariant failed. Not a user error."""
