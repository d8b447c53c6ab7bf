"""Shared workload construction for every simulated system.

Laminar and the four baselines must consume byte-identical workloads so that
measured differences come purely from orchestration (§8 "alleviating
implementation bias").  :class:`WorkloadBundle` is the single place where the
workload objects — prompt dataset, trajectory factory, environment, decode
model, trainer cost model, experience buffer — are built and seeded.  The
seed layout (``seed`` .. ``seed + 4``) is part of the reproduction contract:
changing it changes every committed ``BENCH_*.json`` baseline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import SystemConfig
from ..data.experience_buffer import ExperienceBuffer
from ..llm.decode_model import DecodeModel
from ..llm.model_spec import ModelSpec
from ..rollout.environment import SimulatedEnvironment, TrajectoryFactory
from ..rollout.generation import ReplicaGenerationState
from ..rollout.replica_config import RolloutReplicaConfig
from ..sim.kvcache import KVCacheConfig
from ..trainer.trainer import Trainer
from ..workload.datasets import PromptDataset, TaskSpec


@dataclass
class WorkloadBundle:
    """Everything a system needs to generate, score and train on one workload.

    Seed layout (fixed):

    ======================  =================
    component               seed
    ======================  =================
    prompt dataset          ``seed``
    trajectory factory      ``seed + 1``
    environment / rewards   ``seed + 2``
    system-level sampling   ``seed + 3``
    (unused)                ``seed + 4``
    ======================  =================

    ``seed + 4`` is reserved: nothing draws from it (the experience buffer
    is FIFO), and leaving the slot empty keeps every other component's seed.
    """

    config: SystemConfig
    model: ModelSpec
    task: TaskSpec
    dataset: PromptDataset
    factory: TrajectoryFactory
    environment: SimulatedEnvironment
    rng: np.random.Generator
    trainer: Trainer
    buffer: ExperienceBuffer
    replica_config: RolloutReplicaConfig
    decode_model: DecodeModel
    #: Derived once and shared by every replica (nothing assigns its fields).
    kvcache_config: KVCacheConfig

    @classmethod
    def from_config(cls, config: SystemConfig) -> "WorkloadBundle":
        model = config.model()
        task = config.task()
        replica_config = RolloutReplicaConfig(
            model=model,
            tensor_parallel=config.rollout_tensor_parallel,
            gpu=config.gpu,
            max_concurrency=config.max_concurrency_per_replica,
        )
        return cls(
            config=config,
            model=model,
            task=task,
            dataset=PromptDataset(task, seed=config.seed),
            factory=TrajectoryFactory(task, seed=config.seed + 1),
            environment=SimulatedEnvironment(task, seed=config.seed + 2),
            rng=np.random.default_rng(config.seed + 3),
            trainer=Trainer(
                model=model,
                parallel=config.trainer_parallel,
                config=config.trainer_config(),
            ),
            buffer=ExperienceBuffer(),
            replica_config=replica_config,
            decode_model=replica_config.decode_model(),
            kvcache_config=replica_config.kvcache_config(),
        )

    def make_replica(self, replica_id: int, weight_version: int = 0) -> ReplicaGenerationState:
        """Build one rollout replica over the shared decode model / KVCache.

        Persistent stragglers declared in ``config.straggler_factors`` attach
        here, so the degradation reaches every system (barrier and
        continuous) through the one replica factory they all share.  The
        straggling entity is a physical *slot*: barrier systems mint fresh
        replica ids every batch, so matching ``replica_id mod replica-count``
        pins the slowdown to the same position in every generation.
        """
        replica = ReplicaGenerationState(
            replica_id=replica_id,
            decode_model=self.decode_model,
            kvcache_config=self.kvcache_config,
            max_concurrency=self.config.max_concurrency_per_replica,
            weight_version=weight_version,
        )
        if self.config.straggler_factors:
            count = self.config.num_rollout_replicas()
            for straggler_id, factor in self.config.straggler_factors:
                if replica_id % count == straggler_id % count:
                    replica.set_slowdown(decode=factor, env=factor)
        return replica
