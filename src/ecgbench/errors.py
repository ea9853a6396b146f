"""Exception taxonomy shared by all ecgbench modules.

Every operation raises a named subclass of :class:`EcgBenchError` so callers
can fail closed on exactly the condition they care about. Plain ``ValueError``
is reserved for violated call preconditions (programming errors), ``OSError``
for I/O.
"""


class EcgBenchError(Exception):
    """Base class for all ecgbench domain errors."""


# --- configuration -----------------------------------------------------------

class ConfigError(EcgBenchError):
    """Invalid run configuration."""


class UnknownField(ConfigError):
    """Configuration contains a key the schema does not define (fail-closed)."""


class InconsistentSettings(ConfigError):
    """Mutually contradictory configuration values."""


class EmptySeeds(ConfigError):
    """Seed list is empty."""


# --- ingestion ---------------------------------------------------------------

class SchemaError(EcgBenchError):
    """Manifest or results file violates its schema."""


class DuplicateRecordKey(SchemaError):
    """Two manifest entries share (subject, session, record_index)."""


class MalformedHeaderLine(EcgBenchError):
    """A WFDB header line could not be parsed."""


class UnsupportedFormat(EcgBenchError):
    """WFDB signal format other than 212 or 16."""


class TruncatedData(EcgBenchError):
    """Signal byte stream inconsistent with its declared format."""


class ZeroGain(EcgBenchError):
    """ADC gain of zero cannot convert to physical units."""


class FormatMismatch(EcgBenchError):
    """File contents do not match the declared format."""


class NonFiniteSamples(EcgBenchError):
    """A record holds NaN or infinite samples, which filtering would spread
    over the whole record."""


# --- dsp ---------------------------------------------------------------------

class BandOutOfRange(EcgBenchError):
    """Filter band edges outside (0, fs/2)."""


class SignalTooShort(EcgBenchError):
    """Signal shorter than the filter needs."""


class FilterTooLong(EcgBenchError):
    """FIR design longer than a desk-scale run holds."""


class ZeroVariance(EcgBenchError):
    """Constant segment cannot be normalized."""


# --- detection / segmentation ------------------------------------------------

class NoPeaksDetected(EcgBenchError):
    """Detector found fewer than two R peaks."""


class WindowLongerThanSignal(EcgBenchError):
    """Blind window exceeds the signal duration."""


class SamplingRateTooLow(EcgBenchError):
    """Record sampled below the rate the R-peak detector needs."""


class WindowTooShort(EcgBenchError):
    """A segment window or stride spans too few samples at the record's rate."""


# --- embedding ---------------------------------------------------------------

class SingleClass(EcgBenchError):
    """Training labels contain fewer than two classes."""


class DimensionMismatch(EcgBenchError):
    """Vector dimension differs from what the model expects."""


class NonFiniteModel(EcgBenchError):
    """Model parameters hold NaN or infinity, e.g. after training diverged."""


# --- matching ----------------------------------------------------------------

class EmptyEnrollment(EcgBenchError):
    """No embeddings available to build a template."""


class ZeroVector(EcgBenchError):
    """Cosine similarity is undefined for an all-zero vector."""


class ConstantVector(EcgBenchError):
    """Pearson similarity is undefined for a constant vector."""


class NoGenuinePairs(EcgBenchError):
    """Score matrix contains no genuine (probe, own-template) cell."""


# --- metrics -----------------------------------------------------------------

class EmptySide(EcgBenchError):
    """Genuine or impostor score list is empty."""


class ZeroPooledVariance(EcgBenchError):
    """d-prime undefined when both score lists are constant."""


class TooFewScores(EcgBenchError):
    """d-prime needs at least two scores per side."""


class TrueSubjectMissing(EcgBenchError):
    """A probe's true subject is absent from the gallery."""


# --- regimes -----------------------------------------------------------------

class RegimeUnsatisfiable(EcgBenchError):
    """No subject in the dataset satisfies the regime preconditions."""


class TooFewSubjects(EcgBenchError):
    """Subject partition needs at least two subjects."""


class SampleLeakage(EcgBenchError):
    """Enrollment and probe segments of one subject share record samples."""


class RangeOutOfBounds(EcgBenchError):
    """A time range extends beyond the record duration."""


class KeyMismatch(EcgBenchError):
    """Per-seed records disagree on their (regime, setting) keys."""


# --- results files -----------------------------------------------------------

class SchemaVersionMismatch(EcgBenchError):
    """Results file written by an incompatible tool version."""


class GranularityWarning(UserWarning):
    """Too few impostor scores to resolve the requested FAR target."""
