"""Multi-channel wireless networks with infrastructure support: construction,
TDMA scheduling, fluid-model simulation, and closed-form throughput/delay
formulas with regime classification."""

from .config import AntennaMode, NetworkConfig, load_config_file, validate_config
from .geometry import (
    Topology,
    build_cell_grid,
    cell_area,
    place_bs,
    place_nodes,
    transmission_range,
)
from .analytic import (
    Condition,
    DelayOrder,
    ThroughputOrder,
    aggregate_adhoc,
    aggregate_infra,
    apply_preset,
    classify_regime,
    delay,
    expected_hops,
    optimal_point,
    per_node_throughput,
    preset,
    prob_adhoc,
    thresholds,
)
from .routing import (
    Flow,
    FlowTable,
    Mode,
    assign_flows,
    build_adhoc_path,
    decide_mode,
    lines_through_cell,
    max_flows_per_node,
)
from .scheduling import (
    AdHocSchedule,
    BsSchedule,
    InterferenceParams,
    build_adhoc_schedule,
    build_bs_schedule,
    build_interference_graph,
    edge_color,
    interferes,
    interfering_cell_bound,
    minislot_of,
    verify_schedule,
    vertex_color,
)
from .simulator import MetricsReport, measure_delay, measure_throughput, run
from .fitting import FitResult, fit_scaling

__version__ = "0.1.0"
