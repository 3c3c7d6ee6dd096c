"""Frame averaging for E(3)-symmetric atomic property prediction.

The package is organized as:

- :mod:`faframe.geometry` — atomic systems, rigid motions, periodic radius
  graphs
- :mod:`faframe.frames` — PCA frames, canonicalization, the view plan
- :mod:`faframe.diffmath` — reverse-mode autodiff over float64 arrays, AdamW
- :mod:`faframe.faenet` — the GNN backbone, training, gradient checking
- :mod:`faframe.audit` — numeric invariance/equivariance reports
- :mod:`faframe.expressivity` — synthetic discrimination benchmarks
- :mod:`faframe.cli` — the ``faframe`` command-line entry point
"""

from .geometry import (
    E3,
    SE3,
    SO3,
    T3,
    Z_AXIS_2D,
    AtomicSystem,
    EuclideanTransform,
    RadiusGraph,
    apply_transform,
    apply_transforms,
    build_radius_graph,
    build_radius_graphs,
    random_transform,
    random_transforms,
)
from .frames import (
    CanonicalView,
    Frame,
    canonical_views,
    canonicalize,
    compute_frame,
    compute_frames,
)
from .faenet import FAENetConfig, FAENetModel, Prediction, forward, train_step
from .audit import SymmetryReport, audit_model, compare_methods
from .expressivity import gen_k_chain, gen_rot_sym, run_benchmark

__version__ = "0.1.0"
