"""Flat-parameter view of a model.

Gradient sparsification (Section III of the paper) treats the model as a
single D-dimensional vector: clients accumulate residuals ``a_i ∈ R^D``,
upload top-k (index, value) pairs, and the server broadcasts k aggregated
pairs.  :class:`FlatModel` provides exactly that interface on top of a
:class:`repro.nn.layers.Sequential` network: getting/setting all weights as
one vector, computing the flat gradient of a minibatch, and evaluating
per-sample losses at arbitrary weight vectors (needed by the sign
estimator, which probes three different weight vectors per round, each
for all participants in one grouped pass).
"""

from __future__ import annotations

import numpy as np

from repro.nn.layers import Sequential
from repro.nn.losses import Loss, SoftmaxCrossEntropy


class FlatModel:
    """A `Sequential` network plus a loss, exposed through flat vectors.

    Parameters
    ----------
    network:
        The layer stack.  Its parameter arrays are referenced (not copied);
        :meth:`set_weights` writes into them in place.
    loss:
        Loss function; defaults to softmax cross-entropy.
    """

    def __init__(self, network: Sequential, loss: Loss | None = None) -> None:
        self.network = network
        self.loss = loss if loss is not None else SoftmaxCrossEntropy()
        self._param_arrays = network.parameter_arrays()
        self._grad_arrays = network.gradient_arrays()
        if len(self._param_arrays) != len(self._grad_arrays):
            raise ValueError("network has mismatched parameter/gradient lists")
        self._shapes = [p.shape for p in self._param_arrays]
        self._sizes = [p.size for p in self._param_arrays]
        self._offsets = np.concatenate([[0], np.cumsum(self._sizes)])
        self.dimension = int(self._offsets[-1])

    # ------------------------------------------------------------------
    # Weight access
    # ------------------------------------------------------------------
    def parameter_slices(self) -> list[slice]:
        """Flat-vector slice of each parameter array, in layer order.

        Layer-wise sparsifiers (e.g. :class:`repro.sparsify.layerwise.
        LayerwiseTopK`) use these to budget k across layers.
        """
        return [
            slice(int(lo), int(hi))
            for lo, hi in zip(self._offsets[:-1], self._offsets[1:])
        ]

    def get_weights(self) -> np.ndarray:
        """Copy of all parameters as one flat vector of length ``dimension``."""
        return np.concatenate([p.ravel() for p in self._param_arrays])

    def set_weights(self, flat: np.ndarray) -> None:
        """Write ``flat`` into the model parameters in place."""
        flat = np.asarray(flat)
        if flat.shape != (self.dimension,):
            raise ValueError(
                f"expected flat weights of shape ({self.dimension},), got {flat.shape}"
            )
        for arr, lo, hi, shape in zip(
            self._param_arrays, self._offsets[:-1], self._offsets[1:], self._shapes
        ):
            arr[...] = flat[lo:hi].reshape(shape)

    # ------------------------------------------------------------------
    # Gradient / loss evaluation
    # ------------------------------------------------------------------
    def gradient(
        self, x: np.ndarray, y: np.ndarray
    ) -> tuple[np.ndarray, float]:
        """Flat gradient of the mean loss on minibatch ``(x, y)``.

        Returns ``(grad, loss_value)`` where ``grad`` has length
        ``dimension`` and ``loss_value`` is the mean minibatch loss at the
        current weights.
        """
        self.network.zero_grad()
        logits = self.network.forward(x)
        loss_value = self.loss.forward(logits, y)
        grad_logits = self.loss.backward(logits, y)
        self.network.backward(grad_logits)
        flat_grad = np.concatenate([g.ravel() for g in self._grad_arrays])
        return flat_grad, loss_value

    def supports_batched_gradients(self) -> bool:
        """Whether :meth:`gradients_batched` can reproduce per-group calls.

        True when every layer processes samples independently and consumes
        no per-call RNG (no training-mode BatchNorm, no active Dropout).
        The whole experiment model zoo qualifies: dense layers run one
        batched gemm per layer, and Conv2D/MaxPool2D run grouped im2col
        passes whose per-group slices are the exact serial calls.
        """
        return self.network.supports_grouped_batch()

    def deterministic_gradients(self) -> bool:
        """Whether :meth:`gradient` is a pure function of (weights, batch).

        False when a layer draws per-call RNG in training mode (active
        Dropout): the gradient then also depends on the layer's RNG
        stream position, so it cannot be reproduced from a model replica
        in another process.  Process-based backends must fall back to
        in-process gradients for such models.
        """
        return not self.network.consumes_forward_rng()

    def gradients_batched(
        self, xs: list[np.ndarray], ys: list[np.ndarray]
    ) -> np.ndarray:
        """Per-group flat gradients in one stacked forward/backward pass.

        ``xs``/``ys`` are per-group minibatches of one common batch size
        (in FL: one minibatch per client, all at the synchronized weights).
        Returns an array of shape ``(groups, dimension)`` whose row ``g``
        equals ``self.gradient(xs[g], ys[g])[0]``, but the network runs a
        single stacked pass: the O(groups) Python loop over clients
        collapses into batched NumPy/BLAS work.  Image minibatches stack
        to ``(groups, batch, C, H, W)`` and flow through the conv/pool
        grouped passes, so CNN configs take this path too.

        The loss gradient is still taken per group (each group's loss is
        the *mean* over its own batch), and parameterized layers reduce
        their parameter gradients per group via
        :meth:`repro.nn.layers.Layer.backward_grouped`.  Raises
        ``ValueError`` when the network contains a layer for which the
        stacked pass is not equivalent (see
        :meth:`supports_batched_gradients`) or batch sizes differ.
        """
        groups = len(xs)
        if groups == 0 or len(ys) != groups:
            raise ValueError("need matching, non-empty xs and ys")
        batch = xs[0].shape[0]
        if any(x.shape[0] != batch for x in xs) or any(
            np.shape(y)[0] != batch for y in ys
        ):
            raise ValueError("all groups must share one batch size")
        if not self.supports_batched_gradients():
            raise ValueError(
                "network contains a layer without grouped-batch support"
            )
        x3 = np.stack(xs)  # (groups, batch, *feature_dims)
        logits3 = self.network.forward_grouped(x3)
        # The loss gradient normalizes by each group's own batch size, so
        # it is taken per group (vectorized when the loss supports it).
        grad3 = self.loss.backward_grouped(logits3, ys)
        _, param_grads = self.network.backward_grouped(grad3)
        flat = np.empty((groups, self.dimension))
        for grads, lo, hi in zip(param_grads, self._offsets[:-1], self._offsets[1:]):
            flat[:, lo:hi] = grads.reshape(groups, hi - lo)
        return flat

    def loss_value(self, x: np.ndarray, y: np.ndarray) -> float:
        """Mean loss on ``(x, y)`` at the current weights (no gradients)."""
        was_training = self.network.training
        self.network.train(False)
        try:
            return self.loss.forward(self.network.forward(x), y)
        finally:
            self.network.train(was_training)

    def per_sample_losses(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Loss of each sample at the current weights, shape ``(batch,)``."""
        was_training = self.network.training
        self.network.train(False)
        try:
            return self.loss.per_sample(self.network.forward(x), y)
        finally:
            self.network.train(was_training)

    def loss_at(self, weights: np.ndarray, x: np.ndarray, y: np.ndarray) -> float:
        """Mean loss of ``(x, y)`` evaluated at an arbitrary weight vector.

        The current weights are restored afterwards.  Used by the
        derivative-sign estimator, which compares losses at ``w(m-1)``,
        ``w(m)`` and the probe weights ``w'(m)``.
        """
        saved = self.get_weights()
        try:
            self.set_weights(weights)
            return self.loss_value(x, y)
        finally:
            self.set_weights(saved)

    def per_sample_losses_at(
        self, weights: np.ndarray, x: np.ndarray, y: np.ndarray
    ) -> np.ndarray:
        """Per-sample losses at an arbitrary weight vector (weights restored)."""
        saved = self.get_weights()
        try:
            self.set_weights(weights)
            return self.per_sample_losses(x, y)
        finally:
            self.set_weights(saved)

    def per_sample_losses_grouped_at(
        self, weights: np.ndarray, xs: list[np.ndarray], ys: list[np.ndarray]
    ) -> np.ndarray:
        """Per-sample losses of several per-group batches at one weight vector.

        Returns shape ``(groups, batch)`` whose row ``g`` equals
        ``self.per_sample_losses_at(weights, xs[g], ys[g])`` bit for bit.
        The weights are swapped in and eval mode is set once for all
        groups, which share one stacked ``forward_grouped`` pass: each
        group's slice has the serial call's gemm shapes, the argument
        :meth:`gradients_batched` rests on.  Networks without grouped
        support (active Dropout, BatchNorm1D) run one forward per group
        under the same single swap.  The sign estimator evaluates every
        participant's one-sample probe this way, one call per weight
        vector.  Zero groups give an empty array; groups must share one
        batch size.
        """
        if len(ys) != len(xs):
            raise ValueError("need one target array per group")
        if not xs:
            return np.empty((0, 0))
        saved = self.get_weights()
        was_training = self.network.training
        try:
            self.set_weights(weights)
            self.network.train(False)
            if not self.network.supports_grouped_batch():
                return np.stack([
                    self.loss.per_sample(self.network.forward(x), y)
                    for x, y in zip(xs, ys)
                ])
            logits3 = self.network.forward_grouped(np.stack(xs))
            groups, batch = logits3.shape[:2]
            losses = self.loss.per_sample(
                logits3.reshape((groups * batch,) + logits3.shape[2:]),
                np.concatenate(ys),
            )
            return losses.reshape(groups, batch)
        finally:
            self.network.train(was_training)
            self.set_weights(saved)

    def accuracy(self, x: np.ndarray, y: np.ndarray) -> float:
        """Classification accuracy at the current weights.

        Only meaningful for classification losses exposing ``predict``.
        """
        predict = getattr(self.loss, "predict", None)
        if predict is None:
            raise TypeError("loss does not define hard predictions")
        was_training = self.network.training
        self.network.train(False)
        try:
            logits = self.network.forward(x)
        finally:
            self.network.train(was_training)
        return float((predict(logits) == y).mean())
