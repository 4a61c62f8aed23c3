"""The training loop before row-restricted Adam, kept as the reference for
``neural.train``: every first-layer row gets a gradient, each Adam moment
is updated in one whole-array pass, and the backward pass recovers each
dropout layer's activation through its mask. The packed rows are unpacked
to float32 once, up front. The history scores the training rows in
512-row slices, the history's definition. Nothing stops the reference when
its numbers overflow: it trains on to the end.

``neural.train`` must give the same weight bytes and the same history as
``reference_train`` on every case of ``CASES`` but those in ``DIVERGING``;
on those, ``neural.train`` must raise Diverged where the reference ends
with weights that are not finite. Run as a script, this prints one
``name<TAB>same|differs`` line per case, so the comparison can run in a
fresh process with another BLAS thread count:

    OPENBLAS_NUM_THREADS=2 PYTHONPATH=src python3 tests/train_oracle.py
"""

from __future__ import annotations

import warnings

import numpy as np

from retrobio import neural as nn
from retrobio.neural import (
    RELU,
    SIGMOID,
    LayerSpec,
    TrainConfig,
    TrainingHistory,
    nn1pr_spec,
    nn2pr_spec,
    save_weights,
)


def reference_backward(model, activations, masks, delta_out):
    grads = [None] * len(model.layers)
    delta = delta_out
    for k in range(len(model.layers) - 1, -1, -1):
        layer = model.layers[k]
        h_out = activations[k + 1]
        if masks[k] is not None:
            delta = delta * masks[k]
            # h_out = act(z) * mask; recover act(z) where the unit was kept
            # (delta is already zero where it was not).
            safe = np.where(masks[k] == 0, 1, masks[k])
            act_out = np.where(masks[k] > 0, h_out / safe, 0)
        else:
            act_out = h_out
        if layer.activation == SIGMOID:
            delta = delta * act_out * (1.0 - act_out)
        elif layer.activation == RELU:
            delta = delta * (act_out > 0)
        grads[k] = (activations[k].T @ delta, delta.sum(axis=0))
        if k:
            delta = delta @ layer.weights.T
    return grads, delta


HISTORY_SLICE = 512


def reference_train(spec, features, labels, config, sample_weights=None, finite_deltas=None):
    """The trained model and history; with a list ``finite_deltas``, also
    whether each step's first-layer delta was finite, appended in order."""
    x = np.unpackbits(features, axis=1, bitorder="little").astype(np.float32)
    y = np.asarray(labels, dtype=np.float32).reshape(-1)
    w = (
        np.ones_like(y)
        if sample_weights is None
        else np.asarray(sample_weights, dtype=np.float32).reshape(-1)
    )
    if config.positive_weight is not None:
        w = np.where(y == 1.0, w * np.float32(config.positive_weight), w)
    rng = np.random.Generator(np.random.PCG64(config.seed))
    model = nn.initialize(spec, rng)
    history = TrainingHistory()
    params = [a for l in model.layers for a in (l.weights, l.biases)]
    m = [np.zeros_like(a) for a in params]
    v = [np.zeros_like(a) for a in params]
    step = 0
    n = x.shape[0]
    for _ in range(config.epochs):
        order = rng.permutation(n)
        for lo in range(0, n, config.batch_size):
            batch = order[lo : lo + config.batch_size]
            xb, yb, wb = x[batch], y[batch], w[batch]
            out, acts, masks = nn._forward_full(model, xb, rng)
            delta = nn._bce_output_delta(out[:, 0], yb, wb)[:, None] / len(batch)
            pairs, first_delta = reference_backward(model, acts, masks, delta.astype(np.float32))
            if finite_deltas is not None:
                finite_deltas.append(bool(np.isfinite(first_delta).all()))
            grads = [g for pair in pairs for g in pair]
            step += 1
            correction1 = 1.0 - nn.ADAM_BETA1**step
            correction2 = 1.0 - nn.ADAM_BETA2**step
            for p, g, mk, vk in zip(params, grads, m, v):
                mk *= nn.ADAM_BETA1
                mk += (1 - nn.ADAM_BETA1) * g
                vk *= nn.ADAM_BETA2
                vk += (1 - nn.ADAM_BETA2) * g * g
                p -= (
                    config.learning_rate
                    * (mk / correction1)
                    / (np.sqrt(vk / correction2) + nn.ADAM_EPSILON)
                )
        scores = np.concatenate([
            nn._forward_full(model, x[lo : lo + HISTORY_SLICE], None)[0][:, 0]
            for lo in range(0, n, HISTORY_SLICE)
        ])
        scores = np.clip(scores, nn.LOSS_EPS, 1.0 - nn.LOSS_EPS)
        losses = -(
            w * (y * np.log(np.clip(scores, nn.LOSS_EPS, None))
                 + (1 - y) * np.log(np.clip(1 - scores, nn.LOSS_EPS, None)))
        )
        history.loss.append(float(losses.mean()))
        history.accuracy.append(float(((scores >= 0.5) == (y == 1.0)).mean()))
    return model, history


def sparse_rows(rng, n, width, used, per_row):
    """0/1 rows setting ``per_row`` of ``used`` random columns each; every
    other column is never set. Labels hold both classes."""
    x = np.zeros((n, width), dtype=np.float32)
    columns = rng.choice(width, used, replace=False)
    for row in x:
        row[rng.choice(columns, per_row)] = 1.0
    y = (rng.random(n) < 0.4).astype(np.float32)
    y[:2] = (1.0, 0.0)
    return x, y


def _case(spec, n, used, config, weighted=False, seed=0):
    rng = np.random.default_rng(seed)
    x, y = sparse_rows(rng, n, spec[0].in_dim, used, min(used, 12))
    weights = rng.random(n).astype(np.float32) + 0.5 if weighted else None
    x = np.packbits(x.astype(np.uint8), axis=1, bitorder="little")
    return spec, x, y, config, weights


# name -> (spec, features, labels, config, sample weights), built on demand.
CASES = {
    "nn1_dropout0": lambda: _case(nn1pr_spec(0.0), 96, 300, TrainConfig(batch_size=32, epochs=2, seed=1)),
    "nn1_dropout_batch_not_dividing": lambda: _case(
        nn1pr_spec(0.2), 100, 300, TrainConfig(batch_size=48, epochs=2, seed=2), weighted=True
    ),
    "nn2_dropout0": lambda: _case(nn2pr_spec(0.0), 96, 500, TrainConfig(batch_size=32, epochs=2, seed=3)),
    "nn2_dropout_batch_not_dividing": lambda: _case(
        nn2pr_spec(0.2), 100, 500,
        TrainConfig(batch_size=48, epochs=2, seed=4, positive_weight=1.5),
    ),
    # More than one history slice, the last of them one row long.
    "nn1_history_1025_rows": lambda: _case(
        nn1pr_spec(0.2), 1025, 300, TrainConfig(batch_size=128, epochs=1, seed=9),
        weighted=True,
    ),
    "nn2_history_1025_rows_packed": lambda: _case(
        nn2pr_spec(0.2), 1025, 500, TrainConfig(batch_size=128, epochs=1, seed=10),
    ),
    # Learning rates that overflow float32: these diverge.
    "nn1_lr_1e30": lambda: _case(
        nn1pr_spec(0.2), 70, 300, TrainConfig(learning_rate=1e30, batch_size=32, epochs=2, seed=5)
    ),
    "nn2_lr_1e30": lambda: _case(
        nn2pr_spec(0.0), 70, 500, TrainConfig(learning_rate=1e30, batch_size=32, epochs=2, seed=6)
    ),
    "every_column_set": lambda: _case(
        (LayerSpec(16, 8, RELU, 0.2), LayerSpec(8, 1, SIGMOID)), 90, 16,
        TrainConfig(batch_size=16, epochs=3, seed=7),
    ),
    "no_column_set": lambda: _case(
        (LayerSpec(16, 8, RELU), LayerSpec(8, 1, SIGMOID)), 40, 0,
        TrainConfig(batch_size=16, epochs=2, seed=8),
    ),
}


DIVERGING = {"nn1_lr_1e30", "nn2_lr_1e30"}


def same_as_reference(name: str) -> bool:
    """Whether ``neural.train`` and ``reference_train`` give the same weight
    bytes and history on case ``name``; on a case of ``DIVERGING``, whether
    ``neural.train`` raises Diverged and the reference's weights end NaN or
    infinite."""
    spec, x, y, config, weights = CASES[name]()
    with warnings.catch_warnings():
        # The diverging cases overflow to inf and NaN on purpose.
        warnings.simplefilter("ignore", RuntimeWarning)
        ref_model, ref_history = reference_train(spec, x, y, config, weights)
        if name in DIVERGING:
            try:
                nn.train(spec, x, y, config, weights, history=True)
            except nn.Diverged:
                return not all(
                    np.isfinite(a).all() for l in ref_model.layers for a in (l.weights, l.biases)
                )
            return False
        model, history = nn.train(spec, x, y, config, weights, history=True)
    return save_weights(model) == save_weights(ref_model) and history == ref_history


if __name__ == "__main__":
    for name in CASES:
        print(f"{name}\t{'same' if same_as_reference(name) else 'differs'}")
