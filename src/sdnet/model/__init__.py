"""Toy sequence-to-sequence model: tokenizer, network, training."""

from .network import (
    Batch,
    LossNotFiniteError,
    LossReport,
    ModelConfig,
    encode_instances,
    forward_loss,
    generate,
    generate_many,
    init_params,
    make_batch,
    softmax_last,
)
from .tokenizer import (
    EG_ID,
    EOS_ID,
    MD_ID,
    PAD_ID,
    SPECIAL_TOKENS,
    UNK_ID,
    Vocab,
    build_vocab,
    detokenize,
    encode_input,
    encode_target,
    tokenize,
)
from .trainer import (
    FINETUNE,
    PRETRAIN,
    AdamWState,
    FlatLayout,
    StepLog,
    TrainConfig,
    TrainingDivergedError,
    adamw_step,
    clone_params,
    load_checkpoint,
    lr_at,
    save_checkpoint,
    total_steps_for,
    train,
)

__all__ = [
    "Batch", "LossNotFiniteError", "LossReport", "ModelConfig", "encode_instances",
    "forward_loss", "generate", "generate_many", "init_params", "make_batch", "softmax_last",
    "EG_ID", "EOS_ID", "MD_ID", "PAD_ID", "SPECIAL_TOKENS", "UNK_ID", "Vocab",
    "build_vocab", "detokenize", "encode_input", "encode_target", "tokenize",
    "FINETUNE", "PRETRAIN", "AdamWState", "FlatLayout", "StepLog", "TrainConfig",
    "TrainingDivergedError", "adamw_step", "clone_params", "load_checkpoint", "lr_at",
    "save_checkpoint", "total_steps_for", "train",
]
