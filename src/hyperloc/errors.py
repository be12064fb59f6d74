"""Exception hierarchy with machine-readable error codes.

Every domain error carries a stable ``code`` string that the CLI emits as
JSON on stderr. The hierarchical driver fills in ``stage`` when an error
surfaces mid-pipeline. ``group`` is the label of the group at fault, as
the network gives it: a corridor (``line_group``) in stages ``collinear``
and ``floor``, a floor (``plane_group``) in stage ``building``.
"""

from __future__ import annotations


class HyperlocError(Exception):
    """Base class for all domain errors raised by this package."""

    code = "error"

    def __init__(self, message: str = "", *, stage: str | None = None,
                 group: int | None = None):
        self.stage = stage
        self.group = group
        super().__init__(message or self.code)

    def payload(self) -> dict:
        out = {"error": self.code, "message": str(self)}
        if self.stage is not None:
            out["stage"] = self.stage
        if self.group is not None:
            out["group"] = self.group
        return out


class InvalidInputError(HyperlocError):
    code = "invalid-input"


class InvalidConfigError(HyperlocError):
    code = "invalid-config"


class NoSeedError(HyperlocError):
    code = "no-seed"


class DegenerateDistancesError(HyperlocError):
    code = "degenerate-distances"


class DegenerateAnchorsError(HyperlocError):
    code = "degenerate-anchors"


class InconsistentDistancesError(HyperlocError):
    code = "inconsistent-distances"


class NoHamiltonianPathError(HyperlocError):
    code = "no-hamiltonian-path"


class ChordInconsistencyError(HyperlocError):
    code = "chord-inconsistency"

    def __init__(self, message: str = "", *, edge: tuple | None = None, **kw):
        self.edge = edge
        super().__init__(message, **kw)

    def payload(self) -> dict:
        out = super().payload()
        if self.edge is not None:
            out["edge"] = list(self.edge)
        return out


class DegenerateSupportsError(HyperlocError):
    code = "degenerate-supports"


class NonIsometricCorrespondenceError(HyperlocError):
    code = "non-isometric-correspondence"


class AmbiguousPlacementError(HyperlocError):
    code = "ambiguous-placement"


class NotLocalizableError(HyperlocError):
    code = "not-localizable"


class SizeCapError(HyperlocError):
    code = "size-cap"


class TooFewPointsError(HyperlocError):
    code = "too-few-points"
