"""Heavy-tailed marked Poisson cluster processes: simulation, exact M1 path
distances, limit-measure evaluation, and rare-event estimators."""

__version__ = "0.1.0"

from .clusters import BatchClusters, simulate_batch
from .errors import ConfigurationError
from .events import DkProxy, JumpCount, SupExceed, TerminalExceed, ValueAt, parse_event
from .harness import (
    Estimate,
    ExperimentConfig,
    big_jump_anatomy,
    check_assumption6,
    check_remainder,
    check_tail_equivalence,
    crude_estimate,
    draw_clusters,
    ldp_ratio,
    replication_path,
    simulate_replication,
    splitting_estimate,
)
from .laws import JointMarkSpec, TailLaw, WaitLaw
from .m1 import completed_graph, m1_distance
from .measures import LimitMeasure, measure_for_model, mu_bar_tail, mu_sharp, mu_tail
from .paths import (
    CadlagPath,
    ScalingRule,
    build_jump_path,
    centered_scaled_path,
    centering_hawkes,
    centering_mb,
    dk_skeleton,
    kth_largest_jump,
    path_sup,
    path_value,
    terminal,
)

__all__ = [name for name in dir() if not name.startswith("_")]
