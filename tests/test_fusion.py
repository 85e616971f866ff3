"""Batchnorm folding: algebraic examples plus dual-path execution oracles."""
import numpy as np
import pytest

from cnnadapt.analysis import count_flops, count_params
from cnnadapt.errors import NumericalError, PipelineError, ShapeError
from cnnadapt.fusion import fuse_layer, fuse_model
from cnnadapt.model import float_infer, model_digest
from cnnadapt.pruning import frobenius_norms
from cnnadapt.quantization import quantize_model
from cnnadapt.tensor import BatchNormParams, FilterBank
from cnnadapt.tinyyolo import HEAD_IDS, build_tinyyolov3
from util import chain_model, feature_map, random_bank, random_bn


def test_identity_statistics_leave_parameters_alone(rng):
    fb = random_bank(rng, 3, 2, 4)
    bn = BatchNormParams(mu=np.zeros(4), sigma2=np.ones(4), gamma=np.ones(4),
                         beta=np.zeros(4), epsilon=0.0)
    fused = fuse_layer(fb, bn)
    np.testing.assert_array_equal(fused.weights, fb.weights)
    np.testing.assert_array_equal(fused.biases, fb.biases)


def test_bias_free_fusion_hand_example(rng):
    # s = gamma / sqrt(sigma2 + eps) = 2 / sqrt(4) = 1, so W unchanged and
    # b = beta - s * mu = 1 - 3 = -2
    w = rng.uniform(-1, 1, size=(3, 3, 2, 1)).astype(np.float32)
    fb = FilterBank(w, np.zeros(1, dtype=np.float32))
    bn = BatchNormParams(mu=[3.0], sigma2=[3.99], gamma=[2.0], beta=[1.0], epsilon=0.01)
    fused = fuse_layer(fb, bn)
    np.testing.assert_allclose(fused.weights, w, atol=1e-7)
    assert fused.biases[0] == pytest.approx(-2.0, abs=1e-6)


def test_fuse_layer_length_mismatch_raises(rng):
    fb = random_bank(rng, 3, 2, 4)
    with pytest.raises(ShapeError):
        fuse_layer(fb, random_bn(rng, 3))


def test_fuse_layer_of_an_int16_bank_gives_the_bits_of_its_float32_cast(rng):
    int_bank = quantize_model(chain_model(rng, [4], hw=4)).qparams["conv_1"]
    cast = FilterBank(int_bank.weights.astype(np.float32), int_bank.biases.astype(np.float32))
    bn = random_bn(rng, 4)
    got, want = fuse_layer(int_bank, bn), fuse_layer(cast, bn)
    assert got.weights.dtype == got.biases.dtype == np.float32
    assert got.weights.tobytes() == want.weights.tobytes()
    assert got.biases.tobytes() == want.biases.tobytes()


def test_fuse_layer_refuses_parameters_beyond_float32(rng):
    # gamma 3e38 over sqrt(sigma2 + eps) ~ 0.03: every fused value overflows
    nf = 3
    bn = BatchNormParams(np.zeros(nf), np.full(nf, 1e-45), np.full(nf, 3e38), np.zeros(nf))
    with pytest.raises(NumericalError, match="overflowed float32"):
        fuse_layer(random_bank(rng, 3, 2, nf), bn)


def test_dual_path_single_layer_oracle(rng):
    model = chain_model(rng, [5], hw=6, in_channels=3, bn=True)
    fused = fuse_model(model)
    for _ in range(5):
        fm = feature_map(rng, 6, 6, 3, lo=-1, hi=1)
        a = float_infer(model, fm)["conv_1"].data
        b = float_infer(fused, fm)["conv_1"].data
        assert np.max(np.abs(a - b)) <= 1e-5


def test_fuse_model_without_batchnorm_is_noop(rng):
    model = chain_model(rng, [3, 2], hw=5, bn=False)
    fused = fuse_model(model)
    assert model_digest(fused) == model_digest(model)


def test_fuse_model_sets_flags_and_drops_bn(rng):
    model = chain_model(rng, [3, 2], hw=5, bn=True)
    fused = fuse_model(model)
    for layer in fused.conv_layers():
        assert layer.fused
        assert layer.has_bias
        assert not layer.has_batchnorm
        assert fused.params[layer.id].batchnorm is None
    # per-layer parameter count collapses to weights + nf biases
    for entry in count_params(fused).layers:
        assert entry.batchnorm == 0
        assert entry.biases == fused.layer(entry.layer_id).num_filters


def test_double_fusion_rejected(rng):
    fused = fuse_model(chain_model(rng, [2], hw=4, bn=True))
    with pytest.raises(PipelineError, match="already fused"):
        fuse_model(fused)


def test_tinyyolo_fuses_eleven_convs():
    model = build_tinyyolov3(num_classes=80)
    fused = fuse_model(model)
    fused_ids = [l.id for l in fused.conv_layers() if l.fused]
    assert len(fused_ids) == 11
    for lid in HEAD_IDS:
        head = fused.layer(lid)
        assert not head.fused
        np.testing.assert_array_equal(fused.params[lid].filters.weights,
                                      model.params[lid].filters.weights)


def test_fusion_flop_identity():
    model = build_tinyyolov3(num_classes=80)
    before = count_flops(model)
    after = count_flops(fuse_model(model))
    assert after.total == before.total - before.batchnorm_total
    assert after.batchnorm_total == 0
    assert after.conv_total == before.conv_total


def test_fused_filters_scale_by_s(rng):
    fb = random_bank(rng, 3, 2, 4)
    bn = random_bn(rng, 4)
    fused = fuse_layer(fb, bn)
    s = np.abs(bn.gamma / np.sqrt(bn.sigma2.astype(np.float64) + bn.epsilon))
    np.testing.assert_allclose(frobenius_norms(fused),
                               s * frobenius_norms(fb), rtol=1e-5)


def test_numerical_equivalence_random_chains(rng):
    # scaled-down version of the full sweep in the acceptance suite
    for trial in range(10):
        n_layers = int(rng.integers(2, 6))
        channels = [int(rng.integers(2, 6)) for _ in range(n_layers)]
        model = chain_model(rng, channels, hw=6, in_channels=3, bn=True)
        fused = fuse_model(model)
        for _ in range(3):
            fm = feature_map(rng, 6, 6, 3, lo=-10, hi=10)
            a = float_infer(model, fm, taps=True)
            b = float_infer(fused, fm, taps=True)
            for lid in a:
                assert np.max(np.abs(a[lid].data - b[lid].data)) <= 1e-4
