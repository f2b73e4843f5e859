"""bevx: multi-camera to bird's-eye-view feature transforms.

Two families of transform routes over shared geometry: the exact one
(bit-identical outputs) and its factorized approximation, whose implied
transport matrix contains the exact one:

  * reference.splat_reference - exact: per-sample scatter-add (the oracle)
  * reference.vt_ftm          - exact: one sparse transport matrix
  * transform.vt_matrixvt     - factorized: ring/ray, no lifted tensor

plus prime (height-axis compression) and bench (timing + equivalence CLI).
"""
from .errors import (
    BevxError,
    ConfigError,
    FileFormatError,
    GeometryError,
    ShapeError,
    UsageError,
    ValidationError,
)
from .geometry import (
    BevGrid,
    Camera,
    CameraRig,
    DepthBins,
    FrustumGeometry,
    Scene,
    generate_frustum,
    load_scene,
    scene_digest,
    scene_to_dict,
)
from .prime import (
    AblationReport,
    PrimeAttention,
    RefineMap,
    full_vs_prime_ablation,
    prime_depth,
    prime_feature,
)
from .reference import build_ftm, lift, splat_reference, vt_ftm
from .tensor_core import DTYPE, SparseBinaryMatrix, as_feature
from .transform import (
    CostReport,
    RingRayPair,
    build_ring_ray,
    cost_model,
    effective_ftm,
    load_ring_ray,
    save_ring_ray,
    vt_matrixvt,
)

__version__ = "0.1.0"

__all__ = [
    "BevxError",
    "ConfigError",
    "FileFormatError",
    "GeometryError",
    "ShapeError",
    "UsageError",
    "ValidationError",
    "BevGrid",
    "Camera",
    "CameraRig",
    "DepthBins",
    "FrustumGeometry",
    "Scene",
    "generate_frustum",
    "load_scene",
    "scene_digest",
    "scene_to_dict",
    "AblationReport",
    "PrimeAttention",
    "RefineMap",
    "full_vs_prime_ablation",
    "prime_depth",
    "prime_feature",
    "build_ftm",
    "lift",
    "splat_reference",
    "vt_ftm",
    "DTYPE",
    "SparseBinaryMatrix",
    "as_feature",
    "CostReport",
    "RingRayPair",
    "build_ring_ray",
    "cost_model",
    "effective_ftm",
    "load_ring_ray",
    "save_ring_ray",
    "vt_matrixvt",
    "__version__",
]
