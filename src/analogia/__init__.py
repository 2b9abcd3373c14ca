"""Analogy-preserving sentence embeddings for answer selection.

A candidate answer d is scored by how well (prototype question, prototype
answer, question, d) forms an analogical proportion: the cosine between
the two shift vectors f(a)-f(b) and f(c)-f(d) of a quadruple Siamese
BiGRU encoder.  Training separates analogical from non-analogical
quadruples with a contrastive loss over that cosine; evaluation ranks
candidates by their best prototype and reports MAP/MRR per wh-type.

The package is a plain numpy library.  Everything heavier lives in
submodules: ``numerics`` (the reverse-mode tape), ``encoder`` (BiGRU +
temporal max pooling), ``quadgen`` (prototype and quadruple
construction), ``training`` (Adam + checkpoints), ``evaluation``
(MAP/MRR + baselines), ``synthetic`` (a self-grading toy corpus),
``diagnostics`` (finite-difference audits), and ``cli``.
"""

from .analogy_core import (
    DISSIMILARITY_MODE,
    ENERGY_MODE,
    HyperParams,
    ShiftPair,
    analogical_dissimilarity,
    batch_loss,
    contrastive_loss,
    energy,
    rank_candidates,
)
from .encoder import EncoderParams, derive_seed, encode, encode_batch, encode_many, sentence_encoder
from .evaluation import (
    baseline_rank,
    evaluate,
    mean_average_precision,
    mean_embedding_encoder,
    mrr,
    random_rank,
    sweep_prototypes,
)
from .numerics import GradTape, Tensor, finite_difference_check, tensor
from .quadgen import (
    Prototype,
    Quadruple,
    generate_eval_quadruples,
    generate_training_quadruples,
    select_prototypes,
)
from .text_data import (
    Candidate,
    ConfigError,
    EmbeddingTable,
    ParseError,
    QADataset,
    Question,
    classify_question,
    load_embeddings,
    load_qa_dataset,
    tokenize,
)
from .training import TrainConfig, TrainingError, load_checkpoint, save_checkpoint, train

__version__ = "0.1.0"

__all__ = [
    "DISSIMILARITY_MODE",
    "ENERGY_MODE",
    "Candidate",
    "ConfigError",
    "EmbeddingTable",
    "EncoderParams",
    "GradTape",
    "HyperParams",
    "ParseError",
    "Prototype",
    "QADataset",
    "Quadruple",
    "Question",
    "ShiftPair",
    "Tensor",
    "TrainConfig",
    "TrainingError",
    "analogical_dissimilarity",
    "baseline_rank",
    "batch_loss",
    "classify_question",
    "contrastive_loss",
    "derive_seed",
    "encode",
    "encode_batch",
    "encode_many",
    "energy",
    "evaluate",
    "finite_difference_check",
    "generate_eval_quadruples",
    "generate_training_quadruples",
    "load_checkpoint",
    "load_embeddings",
    "load_qa_dataset",
    "mean_average_precision",
    "mean_embedding_encoder",
    "mrr",
    "random_rank",
    "rank_candidates",
    "save_checkpoint",
    "select_prototypes",
    "sentence_encoder",
    "sweep_prototypes",
    "tensor",
    "tokenize",
    "train",
]
