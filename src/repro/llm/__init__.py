"""LLM architecture specs and analytical latency models."""

from .model_spec import (
    BF16_BYTES,
    MODEL_REGISTRY,
    ModelSpec,
    QWEN_7B,
    QWEN_32B,
    QWEN_72B,
    get_model,
)
from .parallelism import (
    ParallelConfig,
    fsdp_trainer_config,
    megatron_trainer_config,
    rollout_free_memory_for_kvcache,
)
from .decode_model import DECODE_STEP_OVERHEAD, DecodeModel
from .training_model import EXPERIENCE_PREP_FRACTION, TrainingModel

__all__ = [
    "BF16_BYTES",
    "MODEL_REGISTRY",
    "ModelSpec",
    "QWEN_7B",
    "QWEN_32B",
    "QWEN_72B",
    "get_model",
    "ParallelConfig",
    "fsdp_trainer_config",
    "megatron_trainer_config",
    "rollout_free_memory_for_kvcache",
    "DECODE_STEP_OVERHEAD",
    "DecodeModel",
    "EXPERIENCE_PREP_FRACTION",
    "TrainingModel",
]
