import functools
import math
import os
import struct
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import retrobio.neural as nn
from retrobio.neural import (
    BadMagic,
    DenseLayer,
    DimChainBroken,
    EmptyDataset,
    GradientMismatch,
    LayerSpec,
    MlpModel,
    RELU,
    SIGMOID,
    SingleClassDataset,
    TrainConfig,
    TruncatedFile,
    VersionMismatch,
    bce_loss,
    forward,
    gradient_check,
    initialize,
    load_weights,
    nn1pr_spec,
    nn2pr_spec,
    save_weights,
    train,
)

from train_oracle import CASES, DIVERGING, reference_train, same_as_reference


def pack(bits) -> np.ndarray:
    """0/1 rows as the packed rows ``forward`` and ``train`` take."""
    return np.packbits(np.asarray(bits, np.uint8), axis=1, bitorder="little")


def random_rows(rng, n, width, density=0.5) -> np.ndarray:
    """``n`` packed rows of ``width`` random bits."""
    return pack(rng.random((n, width)) < density)


def zero_model(dims, activations):
    layers = []
    for (d_in, d_out), act in zip(zip(dims, dims[1:]), activations):
        layers.append(
            DenseLayer(
                np.zeros((d_in, d_out), np.float32),
                np.zeros(d_out, np.float32),
                act,
            )
        )
    return MlpModel(tuple(layers))


def weight_sources(blob, tmp_path):
    """The same weight file, first as bytes, then as an open binary file."""
    path = tmp_path / "model.nnpr"
    path.write_bytes(blob)
    yield blob
    with open(path, "rb") as fh:
        yield fh


def history_point(model, packed, y, slice_rows):
    """(loss, accuracy) of ``model`` on unweighted packed rows, scored by
    ``_forward_full`` in unpadded slices of ``slice_rows`` rows."""
    x = np.unpackbits(packed, axis=1, bitorder="little").astype(np.float32)
    out = np.concatenate([
        nn._forward_full(model, x[lo : lo + slice_rows], None)[0][:, 0]
        for lo in range(0, len(x), slice_rows)
    ])
    p = np.clip(out, nn.LOSS_EPS, 1.0 - nn.LOSS_EPS)
    losses = -(y * np.log(np.clip(p, nn.LOSS_EPS, None))
               + (1 - y) * np.log(np.clip(1 - p, nn.LOSS_EPS, None)))
    return float(losses.mean()), float(((p >= 0.5) == (y == 1.0)).mean())


def separable_toy(n=200, seed=5):
    """Packed 8-bit rows labelled by the majority of their first three bits,
    a linearly separable rule."""
    bits = np.random.default_rng(seed).random((n, 8)) < 0.5
    y = (bits[:, :3].sum(axis=1) >= 2).astype(np.float32)
    return pack(bits), y


class TestArchitectures:
    def test_one_step_parameter_count(self):
        model = initialize(nn1pr_spec(), np.random.default_rng(0))
        assert model.parameter_count == 262657
        assert [l.parameter_count for l in model.layers] == [262400, 257]

    def test_two_step_parameter_count(self):
        model = initialize(nn2pr_spec(), np.random.default_rng(0))
        assert model.parameter_count == 852737
        assert [l.parameter_count for l in model.layers] == [786944, 65664, 129]

    def test_final_layer_is_single_sigmoid(self):
        for spec in (nn1pr_spec(), nn2pr_spec()):
            assert spec[-1].out_dim == 1
            assert spec[-1].activation == SIGMOID

    def test_dim_chain_enforced(self):
        with pytest.raises(DimChainBroken):
            MlpModel(
                (
                    DenseLayer(np.zeros((4, 3), np.float32), np.zeros(3, np.float32), RELU),
                    DenseLayer(np.zeros((2, 1), np.float32), np.zeros(1, np.float32), SIGMOID),
                )
            )


class TestForward:
    def test_zero_network_outputs_half(self):
        model = zero_model([8, 3, 1], [RELU, SIGMOID])
        assert forward(model, pack(np.zeros((1, 8)))).tolist() == [0.5]

    def test_hand_built_sigmoid(self):
        weights = np.zeros((8, 1), np.float32)
        weights[:2] = 1.0
        model = MlpModel((DenseLayer(weights, np.zeros(1, np.float32), SIGMOID),))
        (score,) = forward(model, pack([[1, 0, 0, 0, 0, 0, 0, 0]]))
        assert score == pytest.approx(1 / (1 + math.exp(-1)), abs=1e-6)

    def test_inference_deterministic(self):
        model = initialize(nn1pr_spec(), np.random.default_rng(3))
        x = random_rows(np.random.default_rng(4), 1, 1024)
        assert np.array_equal(forward(model, x), forward(model, x))

    def test_dimension_mismatch(self):
        model = initialize(nn1pr_spec(), np.random.default_rng(0))
        with pytest.raises(nn.DimensionMismatch, match=r"shape \(1, 13\) are not packed rows of 128 bytes"):
            forward(model, np.zeros((1, 13), np.uint8))

    @pytest.mark.parametrize("rows", [
        np.zeros((2, 1024), np.float32),  # dense
        np.zeros((2, 128), np.float32),  # dense, at the packed width
        np.zeros((2, 1024), np.uint8),  # unpacked bits
        np.zeros(128, np.uint8),  # one packed row, 1-D
        np.zeros(1024, np.float32),  # one dense row, 1-D
    ])
    def test_only_packed_rows_are_taken(self, rows):
        model = initialize(nn1pr_spec(), np.random.default_rng(0))
        with pytest.raises(nn.DimensionMismatch):
            forward(model, rows)
        with pytest.raises(nn.DimensionMismatch):
            train(nn1pr_spec(), rows, np.arange(len(rows)) % 2, TrainConfig(epochs=1))

    def test_more_than_one_output_is_rejected(self):
        model = zero_model([8, 2], [SIGMOID])
        for x in (np.zeros((1, 1), np.uint8), np.zeros((3, 1), np.uint8)):
            with pytest.raises(nn.DimensionMismatch, match="2 outputs"):
                forward(model, x)

    def test_scores_strictly_inside_unit_interval(self):
        # Weights this large saturate the sigmoid at exactly 0 or 1.
        rng = np.random.default_rng(0)
        model = initialize((LayerSpec(16, 4, RELU), LayerSpec(4, 1, SIGMOID)), rng)
        for layer in model.layers:
            layer.weights[...] *= 1000
        scores = forward(model, random_rows(rng, 100, 16))
        assert np.all(scores > 0.0) and np.all(scores < 1.0)
        clipped = np.float32([nn.LOSS_EPS, 1.0 - nn.LOSS_EPS])
        assert np.isin(scores, clipped).any()

    def test_train_mode_applies_dropout(self):
        rng = np.random.default_rng(1)
        model = initialize((LayerSpec(16, 64, RELU, 0.5), LayerSpec(64, 1, SIGMOID)), rng)
        x = np.abs(np.random.default_rng(2).random((8, 16))).astype(np.float32)
        dropped, _, _ = nn._forward_full(model, x, np.random.default_rng(7))
        clean, _, _ = nn._forward_full(model, x, None)
        assert not np.array_equal(dropped, clean)


@functools.cache
def ranker(kind):
    """One random nn1 or nn2 model per test session."""
    spec = nn1pr_spec() if kind == "nn1" else nn2pr_spec()
    return initialize(spec, np.random.default_rng(0))


class TestRowStability:
    """Inference runs in fixed zero-padded blocks, so a row's score must
    not depend on the other rows, their order or the row's block. A BLAS
    whose kernels break that fails here, not in a changed report."""

    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(["nn1", "nn2"]),
        n=st.integers(1, 300),
        density=st.floats(0.01, 0.5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_row_scored_in_a_batch_equals_row_alone(self, kind, n, density, seed):
        model = ranker(kind)
        rng = np.random.default_rng(seed)
        x = random_rows(rng, n, model.input_dim, density)
        scores = forward(model, x)
        perm = rng.permutation(n)
        assert np.array_equal(forward(model, x[perm]), scores[perm])
        for i in {0, n - 1, *rng.integers(0, n, 6).tolist()}:
            assert np.array_equal(forward(model, x[i : i + 1]), scores[i : i + 1])

    def test_rows_in_every_block_position(self):
        model = ranker("nn1")
        x = random_rows(np.random.default_rng(8), 130, 1024)
        scores = forward(model, x)
        for shift in (1, 63, 64, 65):
            padded = np.concatenate([np.full((shift, 128), 0xFF, np.uint8), x])
            assert np.array_equal(forward(model, padded)[shift:], scores)

    def test_empty_batch(self):
        # (0, 0) is what ``Fingerprinter.features`` gives for no rows.
        for width in (128, 0):
            scores = forward(ranker("nn1"), np.zeros((0, width), np.uint8))
            assert scores.shape == (0,) and scores.dtype == np.float32


class TestLoss:
    def test_half_prediction_is_ln2(self):
        assert bce_loss(0.5, 1, 1.0) == pytest.approx(math.log(2), rel=1e-12)

    def test_perfect_prediction_goes_to_zero(self):
        assert bce_loss(1.0, 1, 1.0) == pytest.approx(0.0, abs=1e-6)

    def test_weight_scales_linearly(self):
        assert bce_loss(0.5, 1, 3.0) == pytest.approx(3 * math.log(2), rel=1e-12)

    def test_clamping_keeps_loss_finite(self):
        assert math.isfinite(bce_loss(0.0, 1, 1.0))
        assert math.isfinite(bce_loss(1.0, 0, 1.0))


class TestTrain:
    def test_separable_data_reaches_high_accuracy(self):
        x, y = separable_toy()
        spec = (LayerSpec(8, 8, RELU), LayerSpec(8, 1, SIGMOID))
        _, history = train(
            spec, x, y, TrainConfig(epochs=200, batch_size=16, seed=11), history=True
        )
        assert history.accuracy[-1] >= 0.99

    def test_zero_epochs_returns_initialization(self):
        x, y = separable_toy()
        spec = (LayerSpec(8, 8, RELU), LayerSpec(8, 1, SIGMOID))
        model, history = train(spec, x, y, TrainConfig(epochs=0, seed=11))
        reference = initialize(spec, np.random.Generator(np.random.PCG64(11)))
        assert save_weights(model) == save_weights(reference)
        assert history.loss == [] and history.accuracy == []

    def test_same_seed_gives_identical_weight_bytes(self):
        x, y = separable_toy()
        spec = (LayerSpec(8, 8, RELU, 0.2), LayerSpec(8, 1, SIGMOID))
        config = TrainConfig(epochs=25, batch_size=32, seed=9)
        a, _ = train(spec, x, y, config)
        b, _ = train(spec, x, y, config)
        assert save_weights(a) == save_weights(b)

    def test_empty_dataset_rejected(self):
        spec = (LayerSpec(8, 4, RELU), LayerSpec(4, 1, SIGMOID))
        with pytest.raises(EmptyDataset):
            train(spec, np.zeros((0, 1), np.uint8), np.zeros(0), TrainConfig())

    def test_single_class_rejected(self):
        spec = (LayerSpec(8, 4, RELU), LayerSpec(4, 1, SIGMOID))
        with pytest.raises(SingleClassDataset):
            train(spec, np.zeros((5, 1), np.uint8), np.ones(5), TrainConfig())

    def test_positive_weight_changes_training(self):
        x, y = separable_toy()
        spec = (LayerSpec(8, 8, RELU), LayerSpec(8, 1, SIGMOID))
        a, _ = train(spec, x, y, TrainConfig(epochs=5, seed=1))
        b, _ = train(spec, x, y, TrainConfig(epochs=5, seed=1, positive_weight=10.0))
        assert save_weights(a) != save_weights(b)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)

    def test_history_is_one_full_matrix_pass(self, monkeypatch):
        # Training must not score through the blocked inference path. The
        # history is the unpadded 512-row slice pass plus the clip, and 150
        # rows are one slice: the full-matrix pass.
        def blocked(*args, **kwargs):
            raise AssertionError("train called the blocked forward")

        monkeypatch.setattr(nn, "forward", blocked)
        rng = np.random.default_rng(3)
        bits = rng.random((150, 64)) < 0.3
        y = (bits[:, :8].sum(axis=1) > 2).astype(np.float32)
        x = pack(bits)
        spec = (LayerSpec(64, 16, RELU, 0.2), LayerSpec(16, 1, SIGMOID))
        model, history = train(
            spec, x, y, TrainConfig(epochs=3, batch_size=32, seed=2), history=True
        )
        assert (history.loss[-1], history.accuracy[-1]) == history_point(model, x, y, 150)

    @pytest.mark.parametrize("n", [513, 1025])
    def test_history_is_scored_in_512_row_slices(self, n, monkeypatch):
        # Slices start at every multiple of 512; 1025 rows leave a last
        # slice of one row. A product's bits can depend on its row count,
        # so the slicing is part of the history's definition.
        assert nn.HISTORY_ROWS == 512
        scored = []
        forward_full = nn._forward_full

        def counting(model, x, rng):
            if rng is None:  # training passes run with dropout
                scored.append(len(x))
            return forward_full(model, x, rng)

        monkeypatch.setattr(nn, "_forward_full", counting)
        rng = np.random.default_rng(n)
        bits = rng.random((n, 64)) < 0.3
        y = (bits[:, :8].sum(axis=1) > 2).astype(np.float32)
        x = pack(bits)
        spec = (LayerSpec(64, 16, RELU, 0.2), LayerSpec(16, 1, SIGMOID))
        model, history = train(
            spec, x, y, TrainConfig(epochs=2, batch_size=128, seed=2), history=True
        )
        assert scored == ([512] * (n // 512) + [n % 512]) * 2
        assert (history.loss[-1], history.accuracy[-1]) == history_point(model, x, y, 512)

    def test_packed_rows_never_build_the_dense_matrix(self):
        # Packed rows stay packed: only a batch or a history slice is ever
        # unpacked, so the traced peak stays below the float32 matrix.
        n, width = 2048, 1536
        rng = np.random.default_rng(6)
        packed = random_rows(rng, n, width, 0.05)
        y = (rng.random(n) < 0.4).astype(np.float32)
        spec = (LayerSpec(width, 16, RELU, 0.2), LayerSpec(16, 1, SIGMOID))
        tracemalloc.start()
        try:
            train(spec, packed, y, TrainConfig(epochs=1, seed=1), history=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * n * width

    def test_history_only_on_request(self):
        x, y = separable_toy()
        spec = (LayerSpec(8, 8, RELU, 0.2), LayerSpec(8, 1, SIGMOID))
        config = TrainConfig(epochs=4, batch_size=32, seed=3)
        plain, none = train(spec, x, y, config)
        tracked, history = train(spec, x, y, config, history=True)
        assert none.loss == [] and none.accuracy == []
        assert len(history.loss) == len(history.accuracy) == 4
        assert save_weights(plain) == save_weights(tracked)

    def test_training_needs_sigmoid_output(self):
        x, y = separable_toy()
        spec = (LayerSpec(8, 4, RELU), LayerSpec(4, 1, RELU))
        with pytest.raises(ValueError):
            train(spec, x, y, TrainConfig(epochs=1))


class TestTrainEqualsReference:
    """Training only the reached first-layer rows, with blocked Adam, gives
    the weight bytes and history of the whole-array loop in
    ``tests/train_oracle.py``, or raises Diverged where that loop ends with
    weights that are not finite."""

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_same_bytes(self, name):
        assert same_as_reference(name)

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_same_bytes_at_blas_thread_count(self, threads):
        # The thread count is read once, when numpy loads OpenBLAS, so each
        # count needs its own process. The row-restricted gradient product
        # must match the full product's rows however BLAS splits the work.
        tests = Path(__file__).resolve().parent
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join([str(tests.parent / "src"), str(tests)])
        done = subprocess.run(
            [sys.executable, str(tests / "train_oracle.py")],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        lines = done.stdout.splitlines()
        assert sorted(line.split("\t")[0] for line in lines) == sorted(CASES)
        assert [line for line in lines if not line.endswith("\tsame")] == []


class TestDivergence:
    @pytest.mark.parametrize("name", sorted(DIVERGING))
    def test_training_stops_at_the_first_non_finite_delta(self, name, monkeypatch):
        # The reference trains on through the overflow; ``train`` makes an
        # Adam step for every step before the reference's first non-finite
        # first-layer delta, and none from that step on.
        spec, x, y, config, weights = CASES[name]()
        finite = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            reference_train(spec, x, y, config, weights, finite_deltas=finite)
        first = finite.index(False) + 1
        steps = []
        adam_step = nn._adam_step

        def counting(param, grad, m, v, learning_rate, step, rows=None):
            steps.append(step)
            adam_step(param, grad, m, v, learning_rate, step, rows)

        monkeypatch.setattr(nn, "_adam_step", counting)
        with pytest.raises(nn.Diverged, match="first-layer delta is not finite"):
            train(spec, x, y, config, weights)
        n_params = 2 * len(spec)
        assert steps == [step for step in range(1, first) for _ in range(n_params)]

    def test_weights_left_not_finite_raise_diverged(self, monkeypatch):
        # No later delta checks the last step's update, so ``train`` checks
        # the weights it would return.
        adam_step = nn._adam_step

        def overflowing(param, grad, m, v, learning_rate, step, rows=None):
            adam_step(param, grad, m, v, learning_rate, step, rows)
            param[-1] = np.inf

        monkeypatch.setattr(nn, "_adam_step", overflowing)
        x, y = separable_toy()
        spec = (LayerSpec(8, 8, RELU), LayerSpec(8, 1, SIGMOID))
        with pytest.raises(nn.Diverged, match="layer 0: a weight or bias is NaN or infinite"):
            train(spec, x, y, TrainConfig(epochs=1, batch_size=len(y)))

    def test_diverged_is_no_value_error(self):
        # So ``dataset.naming_dataset`` does not blame the data file for it.
        assert not issubclass(nn.Diverged, ValueError)


def random_model(spec, rng):
    """Random weights AND biases: pre-activations stay off the relu kink,
    where two-sided finite differences are ill-defined."""
    return MlpModel(
        tuple(
            DenseLayer(
                rng.normal(size=(s.in_dim, s.out_dim)).astype(np.float32),
                rng.normal(size=s.out_dim).astype(np.float32),
                s.activation,
            )
            for s in spec
        )
    )


class TestGradientCheck:
    def test_random_small_models_pass(self):
        rng = np.random.default_rng(2024)
        for trial in range(10):
            model = random_model(
                (LayerSpec(4, 3, RELU), LayerSpec(3, 1, SIGMOID)), rng
            )
            report = gradient_check(model, rng.normal(size=4), trial % 2)
            assert report.max_relative_error <= 1e-4

    def test_corrupted_backprop_fails(self, monkeypatch):
        model = initialize(
            (LayerSpec(4, 3, RELU), LayerSpec(3, 1, SIGMOID)),
            np.random.default_rng(0),
        )
        backward = nn._backward

        def sign_flipped(m, acts, masks, delta):
            return [(-gw, -gb) for gw, gb in backward(m, acts, masks, delta)]

        monkeypatch.setattr(nn, "_backward", sign_flipped)
        with pytest.raises(GradientMismatch) as excinfo:
            gradient_check(model, np.random.default_rng(1).normal(size=4), 1)
        assert "W[" in str(excinfo.value) or "b[" in str(excinfo.value)

    def test_zero_everything_passes(self):
        model = zero_model([3, 2, 1], [RELU, SIGMOID])
        report = gradient_check(model, np.zeros(3), 0)
        assert math.isfinite(report.max_relative_error)
        assert report.max_relative_error <= 1e-4


class TestWeightFiles:
    def test_round_trip_scores_identical(self, tmp_path):
        model = initialize(nn1pr_spec(), np.random.default_rng(8))
        xs = random_rows(np.random.default_rng(9), 100, 1024)
        blob = save_weights(model)
        for source in weight_sources(blob, tmp_path):
            clone = load_weights(source)
            assert np.array_equal(forward(model, xs), forward(clone, xs))
            assert save_weights(clone) == blob

    def test_header_layout(self):
        model = zero_model([2, 1], [SIGMOID])
        blob = save_weights(model)
        assert blob[:4] == b"NNPR"
        assert blob[4:8] == (1).to_bytes(4, "little")
        assert blob[8:12] == (1).to_bytes(4, "little")

    def test_bad_magic(self, tmp_path):
        blob = save_weights(zero_model([2, 1], [SIGMOID]))
        for source in weight_sources(b"XXXX" + blob[4:], tmp_path):
            with pytest.raises(BadMagic):
                load_weights(source)

    def test_version_mismatch(self):
        blob = save_weights(zero_model([2, 1], [SIGMOID]))
        with pytest.raises(VersionMismatch):
            load_weights(blob[:4] + (9).to_bytes(4, "little") + blob[8:])

    def test_truncated_file(self, tmp_path):
        blob = save_weights(initialize(nn1pr_spec(), np.random.default_rng(0)))
        # A layer header claiming 2**64 parameters must fail on the file
        # size, before any array is allocated.
        huge = struct.pack("<IIBf", 2**32 - 1, 2**32 - 1, 1, 0.0)
        for cut in (blob[:-5], blob[:12] + huge + blob[25:]):
            for source in weight_sources(cut, tmp_path):
                with pytest.raises(TruncatedFile):
                    load_weights(source)

    def test_trailing_garbage_rejected(self, tmp_path):
        blob = save_weights(zero_model([2, 1], [SIGMOID]))
        for source in weight_sources(blob + b"\x00", tmp_path):
            with pytest.raises(TruncatedFile):
                load_weights(source)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", ["weights", "biases"])
    def test_non_finite_parameter_rejected(self, where, value):
        model = zero_model([2, 3, 1], [RELU, SIGMOID])
        blob = bytearray(save_weights(model))
        # Layer 1's header starts after the file header (12 bytes) and layer
        # 0 (13 + 4 * 9); its three weights, then its bias, follow it.
        at = 12 + 49 + 13 + (12 if where == "biases" else 0)
        blob[at:at + 4] = struct.pack("<f", value)
        with pytest.raises(ValueError, match="layer 1: .* NaN or infinite"):
            load_weights(bytes(blob))
        # The writer refuses what the reader refuses.
        getattr(model.layers[1], where)[0] = value
        with pytest.raises(ValueError, match="layer 1: .* NaN or infinite"):
            save_weights(model)

    @pytest.mark.parametrize("dropout", [1.0, -0.1, math.nan])
    def test_dropout_outside_unit_interval_rejected(self, dropout):
        layer = zero_model([2, 1], [SIGMOID]).layers[0]
        model = MlpModel((DenseLayer(layer.weights, layer.biases, SIGMOID, dropout),))
        with pytest.raises(ValueError, match=r"layer 0: dropout .* outside \[0, 1\)"):
            load_weights(save_weights(model))

    def test_no_layers_rejected(self):
        with pytest.raises(ValueError, match="no layers"):
            load_weights(save_weights(MlpModel(())))

    def test_dropout_rate_round_trips(self):
        model = initialize(nn2pr_spec(dropout=0.35), np.random.default_rng(0))
        clone = load_weights(save_weights(model))
        assert [l.dropout for l in clone.layers] == pytest.approx([0.35, 0.35, 0.0])
