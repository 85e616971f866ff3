"""Bundled TinyYOLOv3-416 architecture descriptor.

Convolutions are numbered conv_1 .. conv_13 in manifest order; the two
detection heads are conv_10 (13x13 grid) and conv_13 (26x26 grid). Heads
carry a bias, no batchnorm and a linear activation; every other conv is
bias-free with batchnorm and leaky activation. Weights start at zero;
use randomize_weights or an external loader to fill them.
"""
from __future__ import annotations

from .model import ConvParams, LayerGraph, LayerSpec, Model, shape_infer, zero_filter_bank
from .tensor import BatchNormParams
import numpy as np

INPUT_SIZE = 416
DEFAULT_ACT_EXPONENT = 4  # leaky slope 2^-4 = 0.0625

# detection-head filter counts encode the output structure; never prune them
HEAD_IDS = ("conv_10", "conv_13")


def head_filters(num_classes: int) -> int:
    """Three anchors, each predicting 4 box terms + objectness + class scores."""
    return 3 * (num_classes + 5)


def _conv(idx: int, src: str, nf: int, kernel: int, head: bool = False) -> LayerSpec:
    return LayerSpec(
        id=f"conv_{idx}", kind="conv", inputs=(src,),
        num_filters=nf, kernel_h=kernel, kernel_w=kernel, stride=1, padding="same",
        has_bias=head, has_batchnorm=not head, activation="linear" if head else "leaky",
        act_exponent=None if head else DEFAULT_ACT_EXPONENT,
        epsilon=None if head else BatchNormParams.epsilon)


def build_tinyyolov3(num_classes: int = 80) -> Model:
    """Standard TinyYOLOv3 graph at 416x416x3 with zero-initialized weights."""
    if num_classes < 1:
        raise ValueError(f"num_classes must be >= 1, got {num_classes}")
    nf_head = head_filters(num_classes)

    layers = [
        LayerSpec(id="input", kind="input", height=INPUT_SIZE, width=INPUT_SIZE, channels=3),
        _conv(1, "input", 16, 3),
        LayerSpec(id="pool_1", kind="maxpool", inputs=("conv_1",), size=2, stride=2),
        _conv(2, "pool_1", 32, 3),
        LayerSpec(id="pool_2", kind="maxpool", inputs=("conv_2",), size=2, stride=2),
        _conv(3, "pool_2", 64, 3),
        LayerSpec(id="pool_3", kind="maxpool", inputs=("conv_3",), size=2, stride=2),
        _conv(4, "pool_3", 128, 3),
        LayerSpec(id="pool_4", kind="maxpool", inputs=("conv_4",), size=2, stride=2),
        _conv(5, "pool_4", 256, 3),
        LayerSpec(id="pool_5", kind="maxpool", inputs=("conv_5",), size=2, stride=2),
        _conv(6, "pool_5", 512, 3),
        # stride-1 edge-padded pool keeps the 13x13 grid
        LayerSpec(id="pool_6", kind="maxpool", inputs=("conv_6",), size=2, stride=1),
        _conv(7, "pool_6", 1024, 3),
        _conv(8, "conv_7", 256, 1),
        _conv(9, "conv_8", 512, 3),
        _conv(10, "conv_9", nf_head, 1, head=True),
        LayerSpec(id="out_1", kind="output_marker", inputs=("conv_10",)),
        _conv(11, "conv_8", 128, 1),
        LayerSpec(id="upsample_1", kind="upsample", inputs=("conv_11",), factor=2),
        LayerSpec(id="route_1", kind="concat", inputs=("upsample_1", "conv_5")),
        _conv(12, "route_1", 256, 3),
        _conv(13, "conv_12", nf_head, 1, head=True),
        LayerSpec(id="out_2", kind="output_marker", inputs=("conv_13",)),
    ]

    shapes = shape_infer(LayerGraph(layers))
    params = {}
    for layer in layers:
        if layer.kind == "conv":
            nf = layer.num_filters
            fb = zero_filter_bank(layer.kernel_h, layer.kernel_w, shapes[layer.inputs[0]][2], nf)
            bn = None
            if layer.has_batchnorm:
                bn = BatchNormParams(
                    mu=np.zeros(nf), sigma2=np.ones(nf), gamma=np.ones(nf), beta=np.zeros(nf))
            params[layer.id] = ConvParams(fb, bn)
    return Model(tuple(layers), params)
