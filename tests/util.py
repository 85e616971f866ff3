"""Small model builders shared across test modules."""
import numpy as np

from cnnadapt.model import ConvParams, LayerSpec, Model
from cnnadapt.tensor import BatchNormParams, FeatureMap, FilterBank


def bank(weights, biases=None) -> FilterBank:
    w = np.asarray(weights, dtype=np.float32)
    if biases is None:
        biases = np.zeros(w.shape[3], dtype=np.float32)
    return FilterBank(w, np.asarray(biases, dtype=np.float32))


def identity_bank(channels: int, kernel: int = 1) -> FilterBank:
    """Kernel that copies the input: center tap 1 on the diagonal."""
    w = np.zeros((kernel, kernel, channels, channels), dtype=np.float32)
    mid = kernel // 2
    for c in range(channels):
        w[mid, mid, c, c] = 1.0
    return bank(w)


def conv_spec(lid, src, nf, kernel=3, *, act="linear", has_bias=True,
              has_batchnorm=False, stride=1, padding="same",
              act_exponent=4, epsilon=0.001):
    return LayerSpec(
        id=lid, kind="conv", inputs=(src,), num_filters=nf,
        kernel_h=kernel, kernel_w=kernel, stride=stride, padding=padding,
        has_bias=has_bias, has_batchnorm=has_batchnorm, activation=act,
        act_exponent=act_exponent if act == "leaky" else None,
        epsilon=epsilon if has_batchnorm else None)


def random_bank(rng, kernel, c_in, nf, scale=0.5, bias_scale=None) -> FilterBank:
    if bias_scale is None:
        bias_scale = scale
    w = rng.uniform(-scale, scale, size=(kernel, kernel, c_in, nf))
    b = rng.uniform(-bias_scale, bias_scale, size=nf)
    return bank(w, b)


def random_bn(rng, nf, epsilon=0.001) -> BatchNormParams:
    return BatchNormParams(
        mu=rng.uniform(-1, 1, size=nf),
        sigma2=rng.uniform(0.1, 4.0, size=nf),
        gamma=rng.uniform(0.5, 1.5, size=nf),
        beta=rng.uniform(-1, 1, size=nf),
        epsilon=epsilon)


def chain_model(rng, channels, *, hw=6, in_channels=2, kernel=3, bn=False,
                act="leaky", act_exponent=4, scale=0.5, epsilon=0.001) -> Model:
    """input -> conv_1 -> ... -> conv_n, one conv per entry of channels."""
    layers = [LayerSpec(id="input", kind="input", height=hw, width=hw,
                        channels=in_channels)]
    params = {}
    prev, c_in = "input", in_channels
    for i, nf in enumerate(channels, start=1):
        lid = f"conv_{i}"
        layers.append(conv_spec(lid, prev, nf, kernel, act=act,
                                has_bias=not bn, has_batchnorm=bn,
                                act_exponent=act_exponent, epsilon=epsilon))
        fb = random_bank(rng, kernel, c_in, nf, scale=scale)
        if bn:
            fb = FilterBank(fb.weights, np.zeros(nf, dtype=np.float32))
        params[lid] = ConvParams(fb, random_bn(rng, nf, epsilon) if bn else None)
        prev, c_in = lid, nf
    return Model(tuple(layers), params)


def bounded_chain_model(rng, channels, *, hw=5, in_channels=2, kernel=3,
                        act="leaky") -> Model:
    """Chain whose activations provably stay inside [-1, 1] for inputs in [-1, 1].

    Per filter, L1(weights) + |bias| <= 1, so |conv output| <= max |input|.
    """
    model = chain_model(rng, channels, hw=hw, in_channels=in_channels,
                        kernel=kernel, bn=False, act=act, scale=1.0)
    params = {}
    for lid, p in model.params.items():
        w = np.array(p.filters.weights, dtype=np.float64)
        b = rng.uniform(-0.1, 0.1, size=w.shape[3])
        l1 = np.abs(w).sum(axis=(0, 1, 2))
        w = w / np.maximum(l1 / 0.9, 1.0)  # L1 <= 0.9, bias <= 0.1
        params[lid] = ConvParams(FilterBank(w.astype(np.float32),
                                            b.astype(np.float32)), None)
    return Model(model.layers, params)


def feature_map(rng, h, w, c, lo=0.0, hi=1.0) -> FeatureMap:
    return FeatureMap(rng.uniform(lo, hi, size=(h, w, c)).astype(np.float32))
