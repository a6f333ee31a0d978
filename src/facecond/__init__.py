"""Face-region conditioned token enrichment at desk scale.

Landmark geometry and proximity masks, a face-region landmark projector,
mask-guided cross-attention with hand-written gradients, a toy two-stage
training pipeline, a free-text evaluation toolkit, and a dataset
filtering pipeline, all behind one CLI (``facecond``).
"""

from .geometry import (
    LandmarkClip,
    PatchGrid,
    RegionPartition,
    clip_rpp_masks,
    default_partition,
    load_landmarks,
    patch_centroids,
    region_centroids,
    rpp_mask,
    save_landmarks,
)
from .frlp import (
    FrlpParams,
    frlp_backward,
    frlp_forward,
    init_frlp,
    select_tokens,
)
from .frgca import (
    FrgcaParams,
    frgca_backward,
    frgca_forward,
    init_frgca,
)

__version__ = "0.1.0"

__all__ = [
    "FrgcaParams",
    "FrlpParams",
    "LandmarkClip",
    "PatchGrid",
    "RegionPartition",
    "clip_rpp_masks",
    "default_partition",
    "frgca_backward",
    "frgca_forward",
    "frlp_backward",
    "frlp_forward",
    "init_frgca",
    "init_frlp",
    "load_landmarks",
    "patch_centroids",
    "region_centroids",
    "rpp_mask",
    "save_landmarks",
    "select_tokens",
]
