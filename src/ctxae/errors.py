"""Exception hierarchy shared across the pipeline.

CLI exit codes: ConfigError -> 2, MissingArtifact -> 3, NumericalError -> 4,
anything else derived from CtxaeError -> 1.
"""


class CtxaeError(Exception):
    """Base class for all library errors."""


class ConfigError(CtxaeError):
    """Invalid or incomplete run configuration."""


class MissingArtifact(CtxaeError):
    """A required upstream artifact (dataset, bundle, table) is absent."""


class NumericalError(CtxaeError):
    """Training or scoring produced a numerically invalid result."""


# --- ingestion ---------------------------------------------------------------

class ParseError(CtxaeError):
    """Base for record-level ingestion failures; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class RangeError(ParseError):
    pass


class MissingField(ParseError):
    pass


class UnknownEnumToken(ParseError):
    pass


# --- synthesis ---------------------------------------------------------------

class UnmappedContext(ConfigError):
    pass


class UnregisteredFalsification(CtxaeError):
    pass


# --- network / training ------------------------------------------------------

class ShapeMismatch(NumericalError):
    pass


class NonFiniteLoss(NumericalError):
    pass


class EmptyTrainingSet(CtxaeError):
    pass


# --- detectors / thresholds / grouping ---------------------------------------

class UnroutedContext(CtxaeError):
    pass


class MissingThreshold(MissingArtifact):
    pass


class IncompleteGrouping(CtxaeError):
    pass


class EmptyValidationSet(CtxaeError):
    pass


class SingleContext(CtxaeError):
    pass


class NonAnomalyInSet(CtxaeError):
    pass
