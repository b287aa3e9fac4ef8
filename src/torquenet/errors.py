"""Exception types shared across the package.

Every error raised by torquenet derives from TorquenetError, so the CLI can
map any domain failure to exit status 1 while argparse keeps status 2 for
usage problems.
"""


class TorquenetError(Exception):
    """Base class for all torquenet errors."""


class _LocatedError(TorquenetError):
    """An error that may carry the input line (or row index) it concerns."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class IngestError(_LocatedError):
    """Malformed or invalid input data; carries the offending location."""


class UnknownLayerError(_LocatedError):
    """A layer name or id not present in the registry; line, when known,
    is the first input line that names it."""


class UndefinedStatisticError(TorquenetError):
    """A statistic whose denominator is empty (empty network, zero-dyad layer, n < 2)."""


class DisconnectedPairError(TorquenetError):
    """Criticality requested for a pair with no finite composite path."""


class DataError(TorquenetError):
    """Panel/network mismatch: missing nodes, missing villages, bad joins."""


class CollinearityError(TorquenetError):
    """Singular design matrix; names the offending columns."""

    def __init__(self, columns):
        self.columns = tuple(columns)
        super().__init__("design matrix is singular; dependent columns: " + ", ".join(self.columns))


class SeparationError(TorquenetError):
    """Perfect separation during logit fitting; names the diverging regressor."""

    def __init__(self, column: str):
        self.column = column
        super().__init__(f"perfect separation detected on regressor '{column}'")


class FitError(TorquenetError):
    """Model fitting failed to converge or preconditions were violated."""


class PredictionError(TorquenetError):
    """Prediction requested for rows the fitted model cannot score."""


class ConfigError(TorquenetError):
    """Invalid or infeasible scenario configuration."""
