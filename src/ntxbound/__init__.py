"""NT-Xent loss, its alignment/distribution split, and LSE-derived similarity bounds."""

import importlib

from .bounds import (
    BatchEvaluation,
    BoundReport,
    LseBounds,
    VerifyGrid,
    VerifySummary,
    avg_positive_similarity,
    default_grid,
    evaluate_batch,
    lse_bounds,
    monte_carlo_verify,
    sample_embeddings,
    similarity_bound,
)
from .errors import (
    ConfigError,
    DimensionMismatchError,
    EmptyInputError,
    InvalidDatasetParamsError,
    InvalidGridError,
    InvalidTemperatureError,
    NonFiniteLossError,
    NtxBoundError,
    UnsupportedModeError,
    ZeroVectorError,
)
from .loss import AnchorMode, LossBreakdown, LossConfig, logsumexp, nt_xent, nt_xent_grad
from .sim import EmbeddingBatch, SimilarityMatrix, cosine_sim, l2_normalize, similarity_matrix

#: Public names that load on first access (PEP 562), each from its home module, so importing the package, or a
#: command that does not train, does not compile and run the trainer.
_LAZY_HOMES = {
    **dict.fromkeys(("Mlp", "forward"), "mlp"),
    "TrainTrace": "serialize",
    **dict.fromkeys(
        ("AugmentConfig", "DatasetParams", "TrainConfig", "augment", "gen_synthetic", "train", "train_step"), "trainer"
    ),
}

__version__ = "0.1.0"

__all__ = [
    "AnchorMode",
    "AugmentConfig",
    "BatchEvaluation",
    "BoundReport",
    "ConfigError",
    "DatasetParams",
    "DimensionMismatchError",
    "EmbeddingBatch",
    "EmptyInputError",
    "InvalidDatasetParamsError",
    "InvalidGridError",
    "InvalidTemperatureError",
    "LossBreakdown",
    "LossConfig",
    "LseBounds",
    "Mlp",
    "NonFiniteLossError",
    "NtxBoundError",
    "SimilarityMatrix",
    "TrainConfig",
    "TrainTrace",
    "UnsupportedModeError",
    "VerifyGrid",
    "VerifySummary",
    "ZeroVectorError",
    "augment",
    "avg_positive_similarity",
    "cosine_sim",
    "default_grid",
    "evaluate_batch",
    "forward",
    "gen_synthetic",
    "l2_normalize",
    "logsumexp",
    "lse_bounds",
    "monte_carlo_verify",
    "nt_xent",
    "nt_xent_grad",
    "sample_embeddings",
    "similarity_bound",
    "similarity_matrix",
    "train",
    "train_step",
]


def __getattr__(name: str):
    if name in _LAZY_HOMES:
        return getattr(importlib.import_module(f"{__name__}.{_LAZY_HOMES[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY_HOMES))
