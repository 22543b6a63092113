"""Lane-detection toolkit: affinity-field codec, network ledger, metrics."""

__version__ = "0.1.0"

from .affinity import (  # noqa: F401
    AffinityPair,
    DecodeConfig,
    DecodedLane,
    DecodedLanes,
    best_label_agreement,
    decode,
    encode_affinities,
)
from .arch import ArchSpec, build_enet21, count_flops, forward  # noqa: F401
from .dataset import LaneAnnotation, lanes_to_annotation, parse_tusimple, rasterize  # noqa: F401
from .evaluate import EvalConfig, EvalResult, aggregate, evaluate_frame, f1_from_rates  # noqa: F401
from .losses import LossBreakdown, af_loss, iou_loss, total_loss, wbce_loss  # noqa: F401
from .synth import SceneSpec, generate, perturb_fields  # noqa: F401
from .tensor import load_tensor, save_tensor  # noqa: F401
