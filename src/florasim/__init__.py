"""florasim: federated fine-tuning with low-rank adapters, at desk scale.

Clients train thin adapter factors on local shards; the server combines the
uploads by stacking (exact, any rank mix), independent averaging (biased,
equal ranks only) or zero-padding, and the package measures exactly what each
choice does to the global update, the loss, and the bytes on the wire.
"""

from .aggregation import (
    WeightedUpdate,
    aggregate_fedit,
    aggregate_flora,
    aggregate_zero_padding,
    fedit_noise,
    oracle_delta,
    shuffled_stack,
)
from .comm import (
    CommEvent,
    CommLedger,
    ReportRow,
    charge_round,
    read_report,
)
from .config import ExperimentConfig, PRESETS, config_to_text, parse_config
from .data import (
    Batch,
    ClientShard,
    SkewSpec,
    gen_task,
    holdout_split,
    partition,
    scaling_factors,
)
from .errors import ConfigError, DivergenceError, HeterogeneousRankError
from .lora import (
    BaseWeights,
    Dim,
    InitPolicy,
    LoraAdapter,
    adapter_delta,
    init_adapter,
    trainable_fraction,
)
from .simulation import (
    ClientRuntime,
    ServerState,
    compare_strategies,
    run_experiment,
    run_round,
)
from .training import ToyModel, TrainConfig, evaluate, local_train, loss_and_grads

__version__ = "0.1.0"

__all__ = [
    "BaseWeights",
    "Batch",
    "ClientRuntime",
    "ClientShard",
    "CommEvent",
    "CommLedger",
    "ConfigError",
    "Dim",
    "DivergenceError",
    "ExperimentConfig",
    "HeterogeneousRankError",
    "InitPolicy",
    "LoraAdapter",
    "PRESETS",
    "ReportRow",
    "ServerState",
    "SkewSpec",
    "ToyModel",
    "TrainConfig",
    "WeightedUpdate",
    "adapter_delta",
    "aggregate_fedit",
    "aggregate_flora",
    "aggregate_zero_padding",
    "charge_round",
    "compare_strategies",
    "config_to_text",
    "evaluate",
    "fedit_noise",
    "gen_task",
    "holdout_split",
    "init_adapter",
    "local_train",
    "loss_and_grads",
    "oracle_delta",
    "parse_config",
    "partition",
    "read_report",
    "run_experiment",
    "run_round",
    "scaling_factors",
    "shuffled_stack",
    "trainable_fraction",
]
