"""Event-by-event simulation of quantum walks on optics-style networks.

Individual particles carrying two-component complex messages traverse
networks of processing units whose adaptive registers learn from the
particle stream; the detector statistics reproduce quantum-walk
interference without any global wave function.  An exact state-vector
reference and a Leggett-Garg analysis of the invasive three-run versus
non-invasive single-run measurement protocols are included.
"""

from .core import (
    AdaptiveState,
    Message,
    RngStream,
    SOURCE_MESSAGE,
    adaptive_update,
    bs_route,
    derive_seed,
    hadamard_apply,
    pbs_route,
    phase_shift,
)
from .errors import (
    DegenerateAmplitude,
    EmptyRun,
    InsufficientReplicates,
    InvalidLevels,
    QwalkError,
    UnsupportedStep,
    UnwiredPort,
)
from .leggett_garg import (
    LgiComponents,
    LgiResult,
    SINGLE_RUN,
    THREE_RUN,
    k_single_run,
    k_three_run,
    q3_of_site,
    replicate_stats,
    run_protocol,
    single_run_replicate,
    three_run_replicate,
)
from .network import (
    Network,
    RemovalFilter,
    RunResult,
    build_jeong,
    build_robens,
    run,
)
from .theory import (
    DOWN,
    StateVector,
    UP,
    hadamard_walk,
    jeong_evolve,
    srw_distribution,
    table1_closed_form,
    total_variation,
)

__version__ = "0.1.0"

__all__ = [
    "AdaptiveState", "Message", "RngStream", "SOURCE_MESSAGE",
    "adaptive_update", "bs_route", "derive_seed",
    "hadamard_apply", "pbs_route", "phase_shift",
    "DegenerateAmplitude", "EmptyRun", "InsufficientReplicates",
    "InvalidLevels", "QwalkError", "UnsupportedStep",
    "UnwiredPort",
    "LgiComponents", "LgiResult", "SINGLE_RUN", "THREE_RUN",
    "k_single_run", "k_three_run", "q3_of_site", "replicate_stats",
    "run_protocol", "single_run_replicate", "three_run_replicate",
    "Network", "RemovalFilter", "RunResult",
    "build_jeong", "build_robens", "run",
    "DOWN", "StateVector", "UP", "hadamard_walk", "jeong_evolve",
    "srw_distribution", "table1_closed_form", "total_variation",
    "__version__",
]
