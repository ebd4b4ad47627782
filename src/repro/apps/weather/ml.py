"""A small numpy MLP for forecast correction.

Stands in for the paper's "deep learning model trying to characterize
the complex input/output relationship of the given power plant"
(§VI-A). Dense layers with ReLU hidden activations, trained with
mini-batch Adam on MSE. Weights export to the model-exchange JSON of
:mod:`repro.core.frontend`, so the same network can be compiled into
an accelerator by the SDK.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.utils.rng import deterministic_rng
from repro.utils.validation import check_positive


@dataclass
class _Layer:
    weight: np.ndarray
    bias: np.ndarray
    activation: str  # "relu" | "none"


class MLP:
    """Multi-layer perceptron with Adam training."""

    def __init__(self, layer_sizes: Sequence[int], seed: str = "mlp"):
        if len(layer_sizes) < 2:
            raise ValueError("need at least input and output sizes")
        rng = deterministic_rng("mlp-init", seed)
        self.layers: List[_Layer] = []
        for index, (fan_in, fan_out) in enumerate(
            zip(layer_sizes, layer_sizes[1:])
        ):
            scale = np.sqrt(2.0 / fan_in)
            activation = (
                "relu" if index < len(layer_sizes) - 2 else "none"
            )
            self.layers.append(_Layer(
                weight=rng.normal(0, scale, size=(fan_in, fan_out)),
                bias=np.zeros(fan_out),
                activation=activation,
            ))
        self._adam_state: Optional[List[Dict[str, np.ndarray]]] = None
        self._adam_t = 0

    # ------------------------------------------------------------------

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Predict; ``x`` is (batch, features)."""
        out = np.asarray(x, dtype=float)
        for layer in self.layers:
            out = out @ layer.weight + layer.bias
            if layer.activation == "relu":
                out = np.maximum(out, 0.0)
        return out

    def _forward_cached(self, x):
        activations = [np.asarray(x, dtype=float)]
        pre_activations = []
        out = activations[0]
        for layer in self.layers:
            z = out @ layer.weight + layer.bias
            pre_activations.append(z)
            out = np.maximum(z, 0.0) if layer.activation == "relu" \
                else z
            activations.append(out)
        return activations, pre_activations

    def _backward(self, x, y):
        activations, pre_activations = self._forward_cached(x)
        batch = x.shape[0]
        grads = []
        delta = 2.0 * (activations[-1] - y) / batch
        for index in reversed(range(len(self.layers))):
            layer = self.layers[index]
            if layer.activation == "relu":
                delta = delta * (pre_activations[index] > 0)
            grad_w = activations[index].T @ delta
            grad_b = delta.sum(axis=0)
            grads.append((grad_w, grad_b))
            if index > 0:
                delta = delta @ layer.weight.T
        grads.reverse()
        return grads

    # ------------------------------------------------------------------

    def fit(
        self,
        x: np.ndarray,
        y: np.ndarray,
        epochs: int = 200,
        learning_rate: float = 1e-3,
    ) -> List[float]:
        """Train with Adam in batches of 32; returns the per-epoch loss."""
        batch_size = 32
        check_positive("epochs", epochs)
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if y.ndim == 1:
            y = y[:, None]
        rng = deterministic_rng("mlp-fit", "fit")
        if self._adam_state is None:
            self._adam_state = [
                {
                    "mw": np.zeros_like(layer.weight),
                    "vw": np.zeros_like(layer.weight),
                    "mb": np.zeros_like(layer.bias),
                    "vb": np.zeros_like(layer.bias),
                }
                for layer in self.layers
            ]
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        losses = []
        for _epoch in range(epochs):
            order = rng.permutation(len(x))
            epoch_loss = 0.0
            batches = 0
            for start in range(0, len(x), batch_size):
                index = order[start:start + batch_size]
                grads = self._backward(x[index], y[index])
                self._adam_t += 1
                for layer, grad, state in zip(
                    self.layers, grads, self._adam_state
                ):
                    for param, g, mk, vk in (
                        (layer.weight, grad[0], "mw", "vw"),
                        (layer.bias, grad[1], "mb", "vb"),
                    ):
                        state[mk] = beta1 * state[mk] + (1 - beta1) * g
                        state[vk] = (
                            beta2 * state[vk] + (1 - beta2) * g * g
                        )
                        m_hat = state[mk] / (1 - beta1**self._adam_t)
                        v_hat = state[vk] / (1 - beta2**self._adam_t)
                        param -= learning_rate * m_hat / (
                            np.sqrt(v_hat) + eps
                        )
                prediction = self.forward(x[index])
                epoch_loss += float(np.mean(
                    (prediction - y[index]) ** 2))
                batches += 1
            losses.append(epoch_loss / max(batches, 1))
        return losses

    # ------------------------------------------------------------------

    def to_exchange_spec(self, name: str, batch: int) -> Dict:
        """Model-exchange description for the SDK frontend."""
        layers = []
        for layer in self.layers:
            layers.append({
                "type": "dense",
                "units": int(layer.weight.shape[1]),
                "activation": (
                    "relu" if layer.activation == "relu" else "none"
                ),
            })
        return {
            "name": name,
            "batch": batch,
            "input_features": int(self.layers[0].weight.shape[0]),
            "layers": layers,
        }
