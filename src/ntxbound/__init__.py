"""NT-Xent loss, its alignment/distribution split, and LSE-derived similarity bounds."""

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

#: The trainer's public names. They load on first access (PEP 562), so importing the package, or a
#: command that does not train, does not compile and run the trainer.
_TRAINER_NAMES = frozenset(
    "AugmentConfig DatasetParams Mlp TrainConfig TrainTrace augment forward gen_synthetic train train_step".split()
)

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
    if name in _TRAINER_NAMES:
        from . import trainer

        return getattr(trainer, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | _TRAINER_NAMES)
