"""Fold batchnorm sublayers into the preceding convolution.

Per filter n, with s = gamma[n] / sqrt(sigma2[n] + eps):

    W' = s * W        b' = s * (b - mu) + beta

The transform is exact in real arithmetic; float32 reassociation keeps the
two engines within 1e-4 of each other. A fused model always carries biases,
since b' is generically nonzero even for bias-free convolutions.
"""
from __future__ import annotations

from dataclasses import replace

import numpy as np

from .errors import PipelineError, ShapeError
from .model import ConvParams, Model
from .tensor import BatchNormParams, FilterBank


def fuse_layer(filters: FilterBank, bn: BatchNormParams) -> FilterBank:
    """Filter bank with the normalization absorbed; biases become meaningful."""
    if bn.num_filters != filters.num_filters:
        raise ShapeError(
            f"batchnorm has {bn.num_filters} entries for {filters.num_filters} filters")
    denom = np.sqrt(bn.sigma2.astype(np.float64) + bn.epsilon)
    scale = bn.gamma.astype(np.float64) / denom
    # float64 products rounded once to float32, cast through the ufunc's
    # small buffers: no weight-sized float64 temporary
    fused_w = np.multiply(filters.weights, scale, dtype=np.float64, casting="unsafe",
                          out=np.empty_like(filters.weights))
    fused_b = (scale * (filters.biases.astype(np.float64) - bn.mu) + bn.beta).astype(np.float32)
    return FilterBank(fused_w, fused_b)


def fuse_model(model: Model) -> Model:
    """Fuse every batchnorm-carrying conv; rejects a second application."""
    already = [l.id for l in model.conv_layers() if l.fused]
    if already:
        raise PipelineError(f"model already fused (layers {already}); refusing to fuse twice")

    layers = []
    params = dict(model.params)
    for layer in model.layers:
        if layer.kind == "conv" and layer.has_batchnorm:
            p = model.params[layer.id]
            params[layer.id] = ConvParams(fuse_layer(p.filters, p.batchnorm), None)
            layers.append(replace(layer, has_batchnorm=False, has_bias=True,
                                  fused=True, epsilon=None))
        else:
            layers.append(layer)
    return Model(tuple(layers), params)
