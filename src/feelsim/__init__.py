"""feelsim: deterministic simulation of data-aware scheduling for federated edge learning."""

from .datagen import FleetSpec, PartitionSpec, make_classification_pool, make_fleet, make_timeseries, partition
from .diversity import (
    DissimilarityMetric,
    DiversityConfig,
    approximate_entropy,
    dataset_diversity_index,
    gini_simpson,
    mean_pairwise_dissimilarity,
    model_diversity_index,
    model_global_dissimilarity,
    parameter_redundancy,
    sample_entropy,
    shannon_entropy,
)
from .domain import (
    ChannelState,
    DatasetProfile,
    DeviceProfile,
    DeviceReport,
    LocalDataset,
    ModelParams,
    RoundRecord,
    ScheduleDecision,
)
from .engine import AGGREGATIONS, POLICIES, DataConfig, SimulationConfig, SimulationResult, run_simulation
from .learning import TrainConfig, Update, aggregate_fedavg, aggregate_loss_weighted, evaluate, init_model, local_train
from .network import NetworkConfig, allocate_bandwidth, channel_rate, compute_time, expected_completion_time
from .scheduler import (
    ConstraintConfig,
    ScoreWeights,
    filter_eligible,
    jain_fairness,
    schedule_age_fair,
    schedule_data_size_priority,
    schedule_post_training,
    schedule_pre_training,
    schedule_random,
)

__version__ = "0.1.0"
