"""Event-by-event simulation of quantum walks on optics-style networks.

Individual particles carrying two-component complex messages traverse
networks of processing units whose adaptive registers learn from the
particle stream; the detector statistics reproduce quantum-walk
interference without any global wave function.  An exact state-vector
reference and a Leggett-Garg analysis of the invasive three-run versus
non-invasive single-run measurement protocols are included.

The top level exports what the demos and the README example use, plus the
per-hop routing functions; everything else lives in ``qwalk.core``,
``qwalk.network``, ``qwalk.theory``, ``qwalk.leggett_garg`` and
``qwalk.errors``.
"""

from .core import RngStream, adaptive_update, bs_route, derive_seed, pbs_route
from .errors import QwalkError
from .leggett_garg import SINGLE_RUN, THREE_RUN, run_protocol
from .network import RemovalFilter, build_jeong, build_robens, run
from .theory import (
    DOWN,
    StateVector,
    UP,
    hadamard_walk,
    jeong_evolve,
    srw_distribution,
    total_variation,
)

__version__ = "0.1.0"

__all__ = [
    "RngStream", "adaptive_update", "bs_route", "derive_seed", "pbs_route",
    "QwalkError",
    "SINGLE_RUN", "THREE_RUN", "run_protocol",
    "RemovalFilter", "build_jeong", "build_robens", "run",
    "DOWN", "StateVector", "UP", "hadamard_walk", "jeong_evolve",
    "srw_distribution", "total_variation",
    "__version__",
]
