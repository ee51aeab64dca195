"""Binary CSI fingerprint encoding and position matching toolkit.

``import bicsi`` loads the online path: ingest, encoding, fingerprint,
similarity and matcher. The study harnesses, ``bicsi.evaluation`` and
``bicsi.synth``, load on first use of one of their names here (PEP 562).
"""

from importlib import import_module as _import_module

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
    LabeledTrace,
    SubcarrierFilter,
    build_matrix,
    load_filter,
    load_trace,
)
from .matcher import MatchResult, match_trace
from .similarity import MetricKind

__version__ = "0.1.0"

# name -> the offline module that defines it; a module's own name is the module
_LAZY = {
    "evaluation": "evaluation",
    "EvalReport": "evaluation",
    "LabeledWindows": "evaluation",
    "evaluate_windows": "evaluation",
    "metric_comparison": "evaluation",
    "temporal_eval": "evaluation",
    "threshold_sweep": "evaluation",
    "synth": "synth",
    "SynthConfig": "synth",
    "SynthDataset": "synth",
    "drift_sessions": "synth",
    "generate": "synth",
}
# ``from bicsi import *`` binds the lazy names too, loading their modules
__all__ = sorted(name for name in {*globals(), *_LAZY} if not name.startswith("_"))


def __getattr__(name):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _import_module(f"{__name__}.{module_name}")
    value = module if name == module_name else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_LAZY})
