"""Transformer architecture specifications and parameter/byte/FLOP math.

The evaluation uses Qwen2.5 models at 7B, 32B and 72B (§8).  All latency
models in :mod:`repro.llm` derive their costs from the architecture numbers
below, so the reproduction tracks how model size shifts the decode roofline,
weight-transfer volumes and training FLOPs.
"""

from __future__ import annotations

from dataclasses import dataclass


#: Bytes per parameter / activation element in BF16.
BF16_BYTES = 2


@dataclass(frozen=True)
class ModelSpec:
    """Architecture of a decoder-only transformer."""

    name: str
    num_layers: int
    hidden_size: int
    intermediate_size: int
    num_attention_heads: int
    num_kv_heads: int
    vocab_size: int
    max_position_embeddings: int = 32768
    dtype_bytes: int = BF16_BYTES

    # -- derived sizes --------------------------------------------------------
    @property
    def head_dim(self) -> int:
        return self.hidden_size // self.num_attention_heads

    @property
    def attention_params(self) -> int:
        """Per-layer attention parameters (GQA: separate KV head count)."""
        q = self.hidden_size * self.hidden_size
        kv = 2 * self.hidden_size * (self.num_kv_heads * self.head_dim)
        out = self.hidden_size * self.hidden_size
        return q + kv + out

    @property
    def mlp_params(self) -> int:
        """Per-layer gated-MLP parameters (gate, up, down projections)."""
        return 3 * self.hidden_size * self.intermediate_size

    @property
    def layer_params(self) -> int:
        # Two RMSNorm weight vectors per layer.
        return self.attention_params + self.mlp_params + 2 * self.hidden_size

    @property
    def embedding_params(self) -> int:
        return self.vocab_size * self.hidden_size

    @property
    def num_parameters(self) -> int:
        """Total parameter count (tied LM head excluded; Qwen2.5 unties >7B)."""
        lm_head = self.vocab_size * self.hidden_size
        return self.num_layers * self.layer_params + self.embedding_params + lm_head

    @property
    def weight_bytes(self) -> float:
        """Size of the full model weights in the serving dtype."""
        return float(self.num_parameters) * self.dtype_bytes

    # -- KVCache ---------------------------------------------------------------
    @property
    def kv_bytes_per_token(self) -> float:
        """KVCache bytes for one token of one sequence (full model)."""
        return float(
            2 * self.num_layers * self.num_kv_heads * self.head_dim * self.dtype_bytes
        )

    # -- FLOPs -------------------------------------------------------------------
    def flops_per_token(self, context_length: int = 0) -> float:
        """Forward-pass FLOPs to process one token.

        The classic 2 * N_params matmul term plus the attention score/value
        term, which grows with the current context length.
        """
        dense = 2.0 * self.num_parameters
        attention = 4.0 * self.num_layers * self.hidden_size * max(0, context_length)
        return dense + attention

    def training_flops_per_token(self, context_length: int = 0) -> float:
        """Forward + backward FLOPs per trained token (3x forward)."""
        return 3.0 * self.flops_per_token(context_length)


# -- Qwen2.5 family (per the Qwen2.5 technical report) -------------------------

QWEN_7B = ModelSpec(
    name="Qwen2.5-7B",
    num_layers=28,
    hidden_size=3584,
    intermediate_size=18944,
    num_attention_heads=28,
    num_kv_heads=4,
    vocab_size=152064,
)

QWEN_32B = ModelSpec(
    name="Qwen2.5-32B",
    num_layers=64,
    hidden_size=5120,
    intermediate_size=27648,
    num_attention_heads=40,
    num_kv_heads=8,
    vocab_size=152064,
)

QWEN_72B = ModelSpec(
    name="Qwen2.5-72B",
    num_layers=80,
    hidden_size=8192,
    intermediate_size=29568,
    num_attention_heads=64,
    num_kv_heads=8,
    vocab_size=152064,
)

MODEL_REGISTRY = {
    "7B": QWEN_7B,
    "32B": QWEN_32B,
    "72B": QWEN_72B,
    QWEN_7B.name: QWEN_7B,
    QWEN_32B.name: QWEN_32B,
    QWEN_72B.name: QWEN_72B,
}


def get_model(name: str) -> ModelSpec:
    """Look a model up by short ("7B") or full ("Qwen2.5-7B") name."""
    try:
        return MODEL_REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown model {name!r}; known: {sorted(set(MODEL_REGISTRY))}"
        ) from None
