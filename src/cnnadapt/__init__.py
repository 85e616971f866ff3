"""Adapt float CNNs for integer inference: fuse, prune, quantize, compare."""

from types import ModuleType as _ModuleType


from .errors import (
    CnnAdaptError,
    EvaluatorError,
    ModelFormatError,
    NumericalError,
    PipelineError,
    ShapeError,
)
from .tensor import (
    BatchNormParams,
    FeatureMap,
    FilterBank,
    batchnorm_forward,
    concat,
    conv2d,
    leaky_relu,
    load_tensor,
    maxpool,
    save_tensor,
    upsample_nearest,
)
from .model import (
    ConvParams,
    LayerSpec,
    Model,
    float_infer,
    load_model,
    model_digest,
    randomize_weights,
    save_model,
    shape_infer,
)
from .fusion import fuse_layer, fuse_model
from .pruning import (
    PruneConfig,
    PruneReport,
    PruneStep,
    compute_metric_table,
    filter_sparsity,
    frobenius_norms,
    prune_below,
    prune_routine,
)
from .quantization import (
    OverflowStats,
    QuantConfig,
    QuantizedModel,
    dequantize,
    int_infer,
    load_quantized_model,
    quant_leaky_relu,
    quantize_input,
    quantize_model,
    quantize_tensor,
    rshift,
    save_quantized_model,
)
from .analysis import (
    FlopReport,
    MseReport,
    ParamReport,
    compare_traces,
    count_flops,
    count_params,
)
from .evaluation import (
    Detection,
    GroundTruthBox,
    accuracy_evaluator,
    evaluate_map,
    iou,
    load_dataset,
    map_evaluator,
    ordered_map,
)
from .tinyyolo import build_tinyyolov3

__version__ = "0.1.0"

__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
