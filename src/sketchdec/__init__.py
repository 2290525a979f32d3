"""Template-guided decoding: search for maximum-likelihood variable
assignments in sketches with deterministic text and typed holes, over
pluggable autoregressive language-model backends.

The HTTP backend, ``RemoteCompletionsLM`` in ``sketchdec.remote``, is
imported on first use, so ``requests`` is loaded only by code that
reaches for it; table and n-gram decoding never import it."""
import importlib
from typing import TYPE_CHECKING

from .constraints import (
    CONTINUE,
    EOS_HIT,
    MAX_TOKENS,
    MEMBER_COMPLETE,
    STOP_PHRASE,
    MaskState,
    advance,
    compute_mask,
    validate_value,
)
from .decoders import (
    ARGMAX,
    BEAM,
    BEAMVAR,
    PROPOSAL_BRANCH,
    PROPOSAL_EXHAUSTIVE,
    PROPOSAL_SAMPLE,
    VAR,
    DecodeResult,
    DecoderConfig,
    allocate_pools,
    decode,
)
from .errors import (
    BackendUnavailable,
    ConstraintViolation,
    ContextTooLong,
    DeadEnd,
    DynamicProgramError,
    ForcedScoringUnsupported,
    ForcedTextMisaligned,
    IllegalToken,
    InstanceTooLarge,
    ManifestError,
    MissingBinding,
    ModelFileError,
    SketchSyntaxError,
    SketchdecError,
    TemplateUnsatisfiable,
    UnsegmentableText,
)
from .lm import LMBackend, NGramLM, TableLM, TokenDistribution, Vocabulary
from .oracle import enumerate_completions, oracle_decode
from .scoring import Hypothesis, ScoreParams, normalization_weight
from .sketch import (
    Binding,
    Bindings,
    Chunk,
    DynamicSketchSource,
    OneOf,
    Sketch,
    StaticSketchSource,
    VariableSpec,
    instantiate,
    load_sketch,
    parse_sketch,
    serialize_sketch,
)
from .trace import DecodingTree, TraceNode

if TYPE_CHECKING:
    from . import remote
    from .remote import RemoteCompletionsLM

__all__ = [
    "ARGMAX",
    "BEAM",
    "BEAMVAR",
    "VAR",
    "CONTINUE",
    "EOS_HIT",
    "MAX_TOKENS",
    "MEMBER_COMPLETE",
    "STOP_PHRASE",
    "PROPOSAL_BRANCH",
    "PROPOSAL_EXHAUSTIVE",
    "PROPOSAL_SAMPLE",
    "BackendUnavailable",
    "Binding",
    "Bindings",
    "Chunk",
    "ConstraintViolation",
    "ContextTooLong",
    "DeadEnd",
    "DecodeResult",
    "DecoderConfig",
    "DecodingTree",
    "DynamicProgramError",
    "DynamicSketchSource",
    "ForcedScoringUnsupported",
    "ForcedTextMisaligned",
    "Hypothesis",
    "IllegalToken",
    "InstanceTooLarge",
    "LMBackend",
    "ManifestError",
    "MaskState",
    "MissingBinding",
    "ModelFileError",
    "NGramLM",
    "OneOf",
    "RemoteCompletionsLM",
    "ScoreParams",
    "Sketch",
    "SketchSyntaxError",
    "SketchdecError",
    "StaticSketchSource",
    "TableLM",
    "TemplateUnsatisfiable",
    "TokenDistribution",
    "TraceNode",
    "UnsegmentableText",
    "VariableSpec",
    "Vocabulary",
    "advance",
    "allocate_pools",
    "compute_mask",
    "decode",
    "enumerate_completions",
    "instantiate",
    "load_sketch",
    "normalization_weight",
    "oracle_decode",
    "parse_sketch",
    "serialize_sketch",
    "validate_value",
]


def __getattr__(name):
    # PEP 562: the HTTP backend and the requests stack load on first use
    if name in ("remote", "RemoteCompletionsLM"):
        module = importlib.import_module(".remote", __name__)
        return module if name == "remote" else module.RemoteCompletionsLM
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), "remote", "RemoteCompletionsLM"})
