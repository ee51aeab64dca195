"""Binary CSI fingerprint encoding and position matching toolkit."""

from .encoding import GeneMatrix, encode_matrix
from .errors import (
    BicsiError,
    ConfigError,
    DataDomainError,
    DbFormatError,
    DbLengthError,
    DbMagicError,
    DbTruncatedError,
    DbVersionError,
    EmptyInputError,
    EmptyTraceError,
    LengthMismatchError,
    SessionMismatchError,
    TraceParseError,
    UnknownLabelError,
)
from .evaluation import (
    EvalReport,
    LabeledTrace,
    LabeledWindows,
    RawBaselineDb,
    RawWindowSet,
    evaluate_windows,
    metric_comparison,
    raw_baseline,
    temporal_eval,
    threshold_sweep,
)
from .fingerprint import (
    FingerprintDb,
    build_db,
    fraction_to_micro,
    load_db,
    save_db,
    threshold_count,
    windows,
)
from .ingest import (
    AmplitudeMatrix,
    SubcarrierFilter,
    build_matrix,
    load_filter,
    load_trace,
)
from .matcher import MatchResult, match_trace
from .similarity import MetricKind
from .synth import SynthConfig, SynthDataset, drift_sessions, generate

__version__ = "0.1.0"
