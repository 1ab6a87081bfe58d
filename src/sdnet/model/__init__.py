"""Toy sequence-to-sequence model: tokenizer, network, training."""

from .network import ModelConfig, generate, generate_many, init_params
from .tokenizer import PAD_ID, UNK_ID, build_vocab
from .trainer import (
    FINETUNE,
    PRETRAIN,
    TrainConfig,
    TrainingDivergedError,
    clone_params,
    load_checkpoint,
    save_checkpoint,
    train,
)

__all__ = [
    "FINETUNE", "PRETRAIN", "ModelConfig", "TrainConfig", "TrainingDivergedError", "build_vocab",
    "clone_params", "generate", "generate_many", "init_params", "load_checkpoint",
    "save_checkpoint", "train", "PAD_ID", "UNK_ID",
]
