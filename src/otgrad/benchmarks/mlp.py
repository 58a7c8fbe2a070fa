"""One-hidden-layer MLP classifier as a flat-parameter objective.

Architecture: 100 inputs -> n_hidden sigmoid units -> 10 logits -> softmax
cross-entropy.  Parameters live in one flat vector laid out as
[W1 (100 x h), b1 (h), W2 (h x 10), b2 (10)], giving
100*h + h + 10*h + 10 entries, so the optimizers can treat training as
ordinary vector optimization.  The gradient is exact backpropagation on a
mini-batch.  `MlpProblem.batch_oracle(X, I)` evaluates a stack of parameter
rows, each on its own batch, in one call; `loss_and_gradient` and the
Objective that `objective_for(indices)` builds on one batch are its one-row
case.
"""

from __future__ import annotations

import numpy as np

from ..core import ContractViolation, Objective, RngStream, one_blas_thread

N_INPUT = 100
N_OUTPUT = 10
ACTIVATIONS = ("sigmoid", "relu", "tanh")


def mlp_param_count(n_hidden: int) -> int:
    return N_INPUT * n_hidden + n_hidden + n_hidden * N_OUTPUT + N_OUTPUT


def _sigmoid_in_place(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(sigmoid(z), its derivative), the first written over z.

    With e = exp(-|z|), sigmoid is 1/(1+e) where z >= 0 and e/(1+e)
    elsewhere: the formulas, entry for entry, of selecting each half of z
    by a mask, so the bits agree, at ±0, ±inf and NaN too (np.minimum
    returns z itself where z is NaN).  Selecting by np.where instead of by
    a mask copies no half out and back.
    """
    pos = z >= 0
    e = np.negative(z)
    np.minimum(z, e, out=e)
    np.exp(e, out=e)
    den = e + 1.0
    a = np.divide(np.where(pos, 1.0, e), den, out=z)
    np.subtract(1.0, a, out=den)
    den *= a
    return a, den


class MlpProblem:
    """Dataset plus architecture.

    batch_oracle answers every optimizer lane's mini-batch in one call,
    row r of a parameter stack on index row r; objective_for(indices)
    gives the loss on one batch as an Objective, and full_objective on
    the whole dataset.
    """

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

    def _layers(self, X: np.ndarray):
        """(W1, b1, W2, b2) of each row of a (rows x dim) stack, as views
        of shapes (rows, 100, h), (rows, 1, h), (rows, h, 10), (rows, 1, 10)."""
        rows, h = X.shape[0], self.n_hidden
        i1 = N_INPUT * h
        i2 = i1 + h
        i3 = i2 + h * N_OUTPUT
        return (X[:, :i1].reshape(rows, N_INPUT, h), X[:, i1:i2].reshape(rows, 1, h),
                X[:, i2:i3].reshape(rows, h, N_OUTPUT), X[:, i3:].reshape(rows, 1, N_OUTPUT))

    def _activate(self, z: np.ndarray):
        """(activation, its derivative) at z, the first written over z."""
        if self.activation == "sigmoid":
            return _sigmoid_in_place(z)
        if self.activation == "tanh":
            a = np.tanh(z, out=z)
            da = a * a
            return a, np.subtract(1.0, da, out=da)
        da = (z > 0.0).astype(np.float64)
        return np.maximum(z, 0.0, out=z), da

    def batch_oracle(self, X: np.ndarray, I: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The stacked oracle on mini-batches: row r of the (rows x dim)
        parameter stack X on the batch I[r] of the (rows x batch) index
        stack I.  Returns (F, G) of shapes (rows,) and (rows, dim): each
        row's mean cross-entropy and its exact backpropagated gradient.

        Every product and reduction runs per row as one stacked numpy
        call (the reductions as the ufunc reduce that max, sum and mean
        make), and the gradient is written straight into the slices of G,
        so a row answers the same bits alone as in any stack.
        """
        return self._evaluate(X, I, gradient=True)

    def _evaluate(self, X, I, gradient: bool):
        """batch_oracle's (F, G), or (F, None) from the forward pass alone."""
        X = np.asarray(X, dtype=np.float64)
        I = np.asarray(I)
        rows, batch = I.shape
        w1, b1, w2, b2 = self._layers(X)
        xb = self.x[I]
        labels = (np.arange(rows * batch), self.y[I].ravel())  # each sample's own logit
        z = np.matmul(xb, w1)
        z += b1
        a, da = self._activate(z)
        shift = np.matmul(a, w2)
        shift += b2
        shift -= np.maximum.reduce(shift, axis=2, keepdims=True)
        delta = np.exp(shift)
        s = np.add.reduce(delta, axis=2)
        nll = np.log(s)
        nll -= shift.reshape(-1, N_OUTPUT)[labels].reshape(rows, batch)
        F = np.add.reduce(nll, axis=1)  # nll.mean(axis=1)
        F /= batch
        if not gradient:
            return F, None
        # softmax minus the one-hot labels, over the batch size
        delta /= s[:, :, None]
        delta.reshape(-1, N_OUTPUT)[labels] -= 1.0
        delta /= batch
        G = np.empty(X.shape)
        g_w1, g_b1, g_w2, g_b2 = self._layers(G)
        np.matmul(a.transpose(0, 2, 1), delta, out=g_w2)
        np.add.reduce(delta, axis=1, keepdims=True, out=g_b2)
        delta1 = np.matmul(delta, w2.transpose(0, 2, 1))
        delta1 *= da
        np.matmul(xb.transpose(0, 2, 1), delta1, out=g_w1)
        np.add.reduce(delta1, axis=1, keepdims=True, out=g_b1)
        return F, G

    @one_blas_thread()
    def loss(self, params: np.ndarray, indices) -> float:
        """The mean cross-entropy on one batch, from the forward pass alone."""
        X = np.asarray(params, dtype=np.float64)[None, :]
        return float(self._evaluate(X, np.asarray(indices)[None, :], gradient=False)[0][0])

    def loss_and_gradient(self, params: np.ndarray, indices) -> tuple[float, np.ndarray]:
        """(loss, loss_gradient) on one batch: batch_oracle's one-row case."""
        F, G = self.batch_oracle(np.asarray(params, dtype=np.float64)[None, :],
                                 np.asarray(indices)[None, :])
        return float(F[0]), G[0]

    def loss_gradient(self, params: np.ndarray, indices) -> np.ndarray:
        return self.loss_and_gradient(params, indices)[1]

    def objective_for(self, indices) -> Objective:
        """The loss on one batch: its oracle is batch_oracle with that batch
        on every row, and value, the forward pass alone, is loss."""
        idx = np.asarray(indices)
        return Objective(
            dim=self.dim, value=lambda p: self.loss(p, idx), name=self.name,
            oracle=lambda X: self.batch_oracle(X, np.broadcast_to(idx, (len(X), len(idx)))))

    def full_objective(self) -> Objective:
        return self.objective_for(np.arange(self.n_samples))

    def init_params(self, rng: RngStream, mean: float = 0.0, std: float = 0.1) -> np.ndarray:
        return mean + std * rng.normal(self.dim)
