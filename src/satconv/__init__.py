"""Differentiable box convolution on summed-area tables."""

# The heap policy goes first, before any satconv module allocates (see heap.py).
from .heap import keep_freed_memory

keep_freed_memory()

from .boxes import (
    BoxParams,
    BoxVariant,
    CornerSamplePlan,
    FeasibilityError,
    compile_plan,
    feasible,
    init_params,
    load_boxes,
    project_params,
    save_boxes,
)
from .fmap import (
    DimensionError,
    PointwiseWeights,
    as_feature_map,
    channel_concat,
    channel_shuffle,
    channel_split,
    load_feature_map,
    pointwise_conv,
    save_feature_map,
)
from .heatmap import decode_keypoint, gaussian_target, mse_loss
from .layer import BoxConvLayer, BoxGrads, LayerGradients
from .oracle import (
    DenseKernel,
    effective_kernel,
    finite_diff,
    naive_conv,
    region_sum,
    sample_bilinear,
    sample_bilinear_grad,
)
from .sat import build_sat, sat_backward

__version__ = "0.1.0"
