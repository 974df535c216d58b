"""Exception hierarchy shared across the toolkit.

Every error belongs to one of four families; each family carries a distinct
CLI exit code so batch callers can branch on failure class.
"""

from __future__ import annotations


class AnalysisError(Exception):
    """Base class for all toolkit errors."""

    exit_code = 1


class ConfigError(AnalysisError):
    """Invalid run configuration."""

    exit_code = 2


class SchemaError(AnalysisError):
    """Input does not match the expected schema or naming contract."""

    exit_code = 3


class DataSizeError(AnalysisError):
    """Input has too few rows/samples/clusters for the requested operation."""

    exit_code = 4


class NumericError(AnalysisError):
    """Numerically invalid input or degenerate computation."""

    exit_code = 5


# -- config family ---------------------------------------------------------

class InvalidConfig(ConfigError):
    pass


# -- schema family ---------------------------------------------------------

class MissingColumn(SchemaError):
    pass


class ParseError(SchemaError):
    pass


class UnknownFeatureName(SchemaError):
    pass


class MissingRank(SchemaError):
    pass


class FeatureOrderMismatch(SchemaError):
    pass


# -- data-size family ------------------------------------------------------

class EmptyTable(DataSizeError):
    pass


class TooFewRows(DataSizeError):
    pass


class TooFewSamples(DataSizeError):
    pass


class SeriesTooShort(DataSizeError):
    pass


class KTooLarge(DataSizeError):
    pass


class RangeTooNarrow(DataSizeError):
    pass


class SingleCluster(DataSizeError):
    pass


class EmptyBuckets(DataSizeError):
    pass


# -- numeric family --------------------------------------------------------

class NonPositiveBaseline(NumericError):
    pass


class NotStandardized(NumericError):
    pass


class AlreadyStandardized(NumericError):
    pass


class NonFiniteValue(NumericError):
    pass


class DegenerateColumn(NumericError):
    pass


class ZeroMatrix(NumericError):
    pass


class DimensionMismatch(NumericError):
    pass


class InvalidDof(NumericError):
    pass
