"""Exception and warning types shared across the package."""


class PfcurvError(Exception):
    """Base class for all errors raised by this package."""


class MeshFileError(PfcurvError):
    """A mesh or cochain file is malformed or internally inconsistent."""


class DuplicateCell(PfcurvError):
    """The same top cell (as a vertex set) was supplied more than once."""


class NonManifold(PfcurvError):
    """A codimension-1 simplex has more than two top cofaces."""


class BrokenCycle(NonManifold):
    """The top cells around a hinge do not form a single closed cycle
    (interior hinge) or a single open chain (boundary hinge)."""


class InconsistentOrientation(PfcurvError):
    """A consistent global orientation was requested but does not exist."""


class DegenerateSimplex(PfcurvError):
    """Squared edge lengths do not describe a simplex of positive volume."""


class NotIncident(PfcurvError):
    """The two elements passed to an incidence-based operation are not
    incident to each other."""


class ZeroMeasureElement(PfcurvError):
    """An element whose measure is required to be nonzero has measure zero
    (for example the dual edge of a face through its own circumcenter)."""


class BoundaryElement(PfcurvError):
    """A curvature quantity was requested on a boundary element where it
    is not defined without an explicit boundary convention."""


class BoundaryHinge(BoundaryElement):
    """Deficit angle requested on a boundary hinge without opting into the
    boundary convention."""


class UnsupportedRequest(PfcurvError, ValueError):
    """A quantity the mesh dimension lacks, or a parameter out of range."""


class UnsupportedPair(UnsupportedRequest):
    """The requested lattice/degree combination is not supported."""


class NonWellCenteredWarning(UserWarning):
    """Some dual volumes are zero or negative; signed identities still hold
    but positivity-based interpretations do not."""
