"""Exception types shared across the library."""


class ConelabError(Exception):
    """Base class for all library errors."""


class SizeLimit(ConelabError):
    """Exact GH search requested beyond the point cap."""


class GridTooCoarse(ConelabError):
    """Operation needs at least 3 grid points."""


class ZeroFunction(ConelabError):
    """Normalization of an identically-zero warping function."""


class MollifyFailed(ConelabError):
    """Smoothing retries exhausted without a concave candidate."""


class ResourceLimit(ConelabError):
    """Requested table exceeds the size budget, MAX_TABLE_ENTRIES: the
    entries of one stored full table of each kind (lower, upper).  Rows
    stored one at a time stay below n_time rows per table.
    `bracket_width` stores no table, so `tau --p --q` holds one block of
    lower rows, one upper row and the pair's rows."""


class NotCausallyRelated(ConelabError):
    """No causal grid path between the two points."""


class MixedModels(ConelabError):
    """Model-space points with different curvature parameters."""


class OutsideChart(ConelabError):
    """Model pair outside the normal chart; comparison value undefined."""


class Unrealizable(ConelabError):
    """No comparison configuration solves the constraint system."""


class DomainViolation(ConelabError):
    """A comparison precondition (e.g. the pi_{-K} bound) fails."""


class InsufficientSamples(ConelabError):
    """Rejection sampling produced too few valid configurations."""


class NotCausallyCouplable(ConelabError):
    """The set of causal couplings between the marginals is empty."""


class ZeroReferenceCell(ConelabError):
    """An atom sits on a cell of zero reference weight (density undefined)."""


class NotTimelikeDualizable(ConelabError):
    """No optimal coupling concentrated on strictly timelike pairs."""


class AtomNotInPast(ConelabError):
    """Measure atoms outside the chronological past of the target point."""


class SlopeBoundViolated(ConelabError):
    """Normalized warping violates the log-slope comparison bound."""


class BoundaryPoint(ConelabError):
    """Tangent-cone base point on the boundary or at a zero of the warping."""
