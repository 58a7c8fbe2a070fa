"""One-hidden-layer MLP classifier as a flat-parameter objective.

Architecture: 100 inputs -> n_hidden sigmoid units -> 10 logits -> softmax
cross-entropy.  Parameters live in one flat vector laid out as
[W1 (100 x h), b1 (h), W2 (h x 10), b2 (10)], giving
100*h + h + 10*h + 10 entries, so the optimizers can treat training as
ordinary vector optimization.  `objective_for(indices)` builds the loss on a
mini-batch; the gradient is exact backpropagation on that batch.
"""

from __future__ import annotations

import numpy as np

from ..core import ContractViolation, Objective, RngStream, row_oracle

N_INPUT = 100
N_OUTPUT = 10
ACTIVATIONS = ("sigmoid", "relu", "tanh")


def mlp_param_count(n_hidden: int) -> int:
    return N_INPUT * n_hidden + n_hidden + n_hidden * N_OUTPUT + N_OUTPUT


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _mean_nll(shift: np.ndarray, log_z: np.ndarray, labels: np.ndarray) -> float:
    """Mean softmax cross-entropy from max-shifted logits and their log-partition."""
    nll = log_z - shift[np.arange(labels.shape[0]), labels]
    return float(nll.mean())


class MlpProblem:
    """Dataset plus architecture; produces batch objectives on demand."""

    def __init__(self, features: np.ndarray, labels: np.ndarray,
                 n_hidden: int = 32, activation: str = "sigmoid", name: str = "mlp"):
        features = np.asarray(features, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.int64)
        if features.ndim != 2 or features.shape[1] != N_INPUT:
            raise ContractViolation(f"features must be (n, {N_INPUT}), got {features.shape}")
        if labels.shape != (features.shape[0],):
            raise ContractViolation("labels must be one integer per sample")
        if labels.min() < 0 or labels.max() >= N_OUTPUT:
            raise ContractViolation(f"labels must lie in 0..{N_OUTPUT - 1}")
        if n_hidden < 1:
            raise ContractViolation(f"n_hidden must be >= 1, got {n_hidden}")
        if activation not in ACTIVATIONS:
            raise ContractViolation(f"activation must be one of {ACTIVATIONS}")
        self.x = features
        self.y = labels
        self.n_hidden = int(n_hidden)
        self.activation = activation
        self.name = name

    @property
    def n_samples(self) -> int:
        return self.x.shape[0]

    @property
    def dim(self) -> int:
        return mlp_param_count(self.n_hidden)

    def _unpack(self, params: np.ndarray):
        h = self.n_hidden
        i = 0
        w1 = params[i:i + N_INPUT * h].reshape(N_INPUT, h)
        i += N_INPUT * h
        b1 = params[i:i + h]
        i += h
        w2 = params[i:i + h * N_OUTPUT].reshape(h, N_OUTPUT)
        i += h * N_OUTPUT
        b2 = params[i:i + N_OUTPUT]
        return w1, b1, w2, b2

    def _activate(self, z: np.ndarray):
        if self.activation == "sigmoid":
            a = _sigmoid(z)
            return a, a * (1.0 - a)
        if self.activation == "tanh":
            a = np.tanh(z)
            return a, 1.0 - a * a
        a = np.maximum(z, 0.0)
        return a, (z > 0.0).astype(np.float64)

    def _forward(self, params: np.ndarray, xb: np.ndarray):
        w1, b1, w2, b2 = self._unpack(params)
        z1 = xb @ w1 + b1
        a1, da1 = self._activate(z1)
        logits = a1 @ w2 + b2
        shift = logits - logits.max(axis=1, keepdims=True)
        exp = np.exp(shift)
        log_z = np.log(exp.sum(axis=1))
        return a1, da1, w2, logits, shift, exp, log_z

    def loss(self, params: np.ndarray, indices) -> float:
        xb = self.x[indices]
        yb = self.y[indices]
        *_, shift, exp, log_z = self._forward(params, xb)
        return _mean_nll(shift, log_z, yb)

    def loss_and_gradient(self, params: np.ndarray, indices) -> tuple[float, np.ndarray]:
        """(loss, loss_gradient) from one forward pass, bit-identical to the two calls."""
        xb = self.x[indices]
        yb = self.y[indices]
        batch = xb.shape[0]
        a1, da1, w2, logits, shift, exp, log_z = self._forward(params, xb)
        loss = _mean_nll(shift, log_z, yb)
        probs = exp / exp.sum(axis=1, keepdims=True)
        delta2 = probs
        delta2[np.arange(batch), yb] -= 1.0
        delta2 /= batch
        g_w2 = a1.T @ delta2
        g_b2 = delta2.sum(axis=0)
        delta1 = (delta2 @ w2.T) * da1
        g_w1 = xb.T @ delta1
        g_b1 = delta1.sum(axis=0)
        return loss, np.concatenate([g_w1.ravel(), g_b1, g_w2.ravel(), g_b2])

    def loss_gradient(self, params: np.ndarray, indices) -> np.ndarray:
        return self.loss_and_gradient(params, indices)[1]

    def objective_for(self, indices) -> Objective:
        """The loss on one batch: its oracle calls loss_and_gradient per row,
        and value, the forward pass alone, is loss."""
        idx = np.asarray(indices)
        return Objective(dim=self.dim, value=lambda p: self.loss(p, idx), name=self.name,
                         oracle=row_oracle(lambda p: self.loss_and_gradient(p, idx)))

    def full_objective(self) -> Objective:
        return self.objective_for(np.arange(self.n_samples))

    def init_params(self, rng: RngStream, mean: float = 0.0, std: float = 0.1) -> np.ndarray:
        return mean + std * rng.normal(self.dim)
