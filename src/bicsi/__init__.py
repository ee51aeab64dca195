"""Binary CSI fingerprint encoding and position matching toolkit."""

from .encoding import (
    GeneMatrix,
    GeneSequence,
    encode10,
    encode_matrix,
    encode_row,
    majority5,
    reencode2,
)
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
    Session,
    TrainingSet,
    accuracy,
    evaluate_windows,
    mae,
    metric_comparison,
    raw_baseline,
    temporal_eval,
    threshold_sweep,
)
from .fingerprint import (
    AncestorPair,
    FingerprintDb,
    PositionEntry,
    append_ancestor_set,
    build_db,
    derive_ancestors,
    derive_parent,
    fraction_to_micro,
    load_db,
    save_db,
    threshold_count,
    windows,
)
from .ingest import (
    AmplitudeMatrix,
    SubcarrierFilter,
    amplitude_from_iq,
    build_matrix,
    load_filter,
    load_trace,
)
from .matcher import MatchResult, match_one, match_trace
from .similarity import (
    MetricKind,
    cosine_bits,
    distance,
    euclidean_bits,
    hamming,
    jaccard_bits,
    manhattan_bits,
    pearson_bits,
)
from .synth import SynthConfig, SynthDataset, drift_sessions, generate

__version__ = "0.1.0"
