"""Dataset loaders for the classifier benchmark.

Three sources, one output contract: features as float64 in [0, 1] with 100
columns (images are downsized to 10x10 by exact area-average pooling) and
integer labels in 0..9.

  mnist_idx        big-endian IDX files (image magic 0x00000803, label magic
                   0x00000801); `path` is a directory holding one
                   *idx3-ubyte* image file and one *idx1-ubyte* label file,
                   or the image file itself with the label file next to it.
  cifar10_binary   3073-byte records (1 label byte + 3072 channel-major RGB
                   bytes); `path` is one .bin file or a directory of them;
                   RGB collapses to grayscale by channel mean.
  synthetic_blobs  ten Gaussian clusters in dimension 100 generated from the
                   seed; no path needed.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

import numpy as np

from ..core import STREAM_DATA, ContractViolation, NumericalDomainError, derive_stream

DATASET_KINDS = ("mnist_idx", "cifar10_binary", "synthetic_blobs")

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801

FEATURE_SIDE = 10
FEATURE_DIM = FEATURE_SIDE * FEATURE_SIDE
N_CLASSES = 10


def pooling_matrix(side_in: int, side_out: int = FEATURE_SIDE) -> np.ndarray:
    """Row-stochastic matrix averaging side_in pixels into side_out bins.

    Bin k covers [k*side_in/side_out, (k+1)*side_in/side_out); pixels that
    straddle a bin edge contribute fractionally, so constant images pool to
    the same constant for any side_in.
    """
    if side_in < side_out:
        raise ContractViolation(f"cannot pool {side_in} pixels up to {side_out}")
    p = np.zeros((side_out, side_in))
    width = side_in / side_out
    for k in range(side_out):
        lo = k * width
        hi = (k + 1) * width
        for i in range(int(np.floor(lo)), int(np.ceil(hi))):
            p[k, i] = min(hi, i + 1) - max(lo, i)
    return p / width


def downsize_images(images: np.ndarray) -> np.ndarray:
    """(n, side, side) images -> (n, 100) area-averaged features."""
    if images.ndim != 3 or images.shape[1] != images.shape[2]:
        raise ContractViolation(f"expected (n, side, side) images, got {images.shape}")
    p = pooling_matrix(images.shape[1])
    pooled = np.einsum("oi,nij,pj->nop", p, images, p)
    return pooled.reshape(images.shape[0], FEATURE_DIM)


def parse_idx_images(data: bytes) -> np.ndarray:
    if len(data) < 16:
        raise NumericalDomainError("IDX image file too short for its header")
    magic, n, rows, cols = struct.unpack(">IIII", data[:16])
    if magic != IDX_IMAGE_MAGIC:
        raise NumericalDomainError(
            f"bad IDX image magic 0x{magic:08x}, expected 0x{IDX_IMAGE_MAGIC:08x}")
    need = 16 + n * rows * cols
    if len(data) < need:
        raise NumericalDomainError(f"IDX image file truncated: {len(data)} < {need} bytes")
    pixels = np.frombuffer(data, dtype=np.uint8, count=n * rows * cols, offset=16)
    return pixels.reshape(n, rows, cols).astype(np.float64) / 255.0


def parse_idx_labels(data: bytes) -> np.ndarray:
    if len(data) < 8:
        raise NumericalDomainError("IDX label file too short for its header")
    magic, n = struct.unpack(">II", data[:8])
    if magic != IDX_LABEL_MAGIC:
        raise NumericalDomainError(
            f"bad IDX label magic 0x{magic:08x}, expected 0x{IDX_LABEL_MAGIC:08x}")
    if len(data) < 8 + n:
        raise NumericalDomainError(f"IDX label file truncated: {len(data)} < {8 + n} bytes")
    return np.frombuffer(data, dtype=np.uint8, count=n, offset=8).astype(np.int64)


def _find_idx_pair(path: str) -> tuple[Path, Path]:
    p = Path(path)
    if p.is_file():
        image_file = p
        candidates = sorted(q for q in p.parent.iterdir() if "idx1-ubyte" in q.name)
        if not candidates:
            raise ContractViolation(f"no *idx1-ubyte* label file found next to {p}")
        return image_file, candidates[0]
    if p.is_dir():
        images = sorted(q for q in p.iterdir() if "idx3-ubyte" in q.name)
        labels = sorted(q for q in p.iterdir() if "idx1-ubyte" in q.name)
        if not images or not labels:
            raise ContractViolation(
                f"{p} must contain one *idx3-ubyte* image file and one *idx1-ubyte* label file")
        return images[0], labels[0]
    raise ContractViolation(f"dataset path {path!r} does not exist")


def load_mnist_idx(path: str) -> tuple[np.ndarray, np.ndarray]:
    image_file, label_file = _find_idx_pair(path)
    images = parse_idx_images(image_file.read_bytes())
    labels = parse_idx_labels(label_file.read_bytes())
    if images.shape[0] != labels.shape[0]:
        raise NumericalDomainError(
            f"image/label count mismatch: {images.shape[0]} vs {labels.shape[0]}")
    return downsize_images(images), labels


CIFAR_RECORD = 3073
CIFAR_SIDE = 32


def parse_cifar10_binary(data: bytes) -> tuple[np.ndarray, np.ndarray]:
    if len(data) == 0 or len(data) % CIFAR_RECORD != 0:
        raise NumericalDomainError(
            f"CIFAR-10 binary length {len(data)} is not a multiple of {CIFAR_RECORD}")
    raw = np.frombuffer(data, dtype=np.uint8).reshape(-1, CIFAR_RECORD)
    labels = raw[:, 0].astype(np.int64)
    pixels = raw[:, 1:].reshape(-1, 3, CIFAR_SIDE, CIFAR_SIDE).astype(np.float64) / 255.0
    gray = pixels.mean(axis=1)
    return gray, labels


def load_cifar10_binary(path: str) -> tuple[np.ndarray, np.ndarray]:
    p = Path(path)
    if p.is_dir():
        files = sorted(q for q in p.iterdir() if q.suffix == ".bin")
        if not files:
            raise ContractViolation(f"{p} contains no .bin CIFAR-10 batches")
    elif p.is_file():
        files = [p]
    else:
        raise ContractViolation(f"dataset path {path!r} does not exist")
    grays = []
    labels = []
    for f in files:
        g, lab = parse_cifar10_binary(f.read_bytes())
        grays.append(g)
        labels.append(lab)
    return downsize_images(np.concatenate(grays)), np.concatenate(labels)


BLOB_SAMPLES = 1280     # samples synthetic_blobs makes unless told otherwise
BLOB_PATTERN_PIXELS = 12
BLOB_BASE = 0.2
BLOB_HIGH = 0.65
BLOB_NOISE = 0.03


def synthetic_blobs(seed: int, n_samples: int = BLOB_SAMPLES) -> tuple[np.ndarray, np.ndarray]:
    """Ten Gaussian class clusters in dimension 100, balanced and shuffled.

    Each class lights up its own set of pattern pixels on a low background;
    features are clipped into [0, 1] to honor the output contract.
    """
    if n_samples < N_CLASSES:
        raise ContractViolation(f"need at least {N_CLASSES} samples, got {n_samples}")
    rng = derive_stream(seed, STREAM_DATA)
    means = np.full((N_CLASSES, FEATURE_DIM), BLOB_BASE)
    for c in range(N_CLASSES):
        pattern = rng.permutation(FEATURE_DIM)[:BLOB_PATTERN_PIXELS]
        means[c, pattern] = BLOB_HIGH
    per = n_samples // N_CLASSES
    extra = n_samples - per * N_CLASSES
    counts = [per + (1 if c < extra else 0) for c in range(N_CLASSES)]
    xs = []
    ys = []
    for c, cnt in enumerate(counts):
        noise = rng.normal(cnt * FEATURE_DIM).reshape(cnt, FEATURE_DIM)
        xs.append(means[c] + BLOB_NOISE * noise)
        ys.append(np.full(cnt, c, dtype=np.int64))
    x = np.clip(np.concatenate(xs), 0.0, 1.0)
    y = np.concatenate(ys)
    order = rng.permutation(n_samples)
    return x[order], y[order]


def load_dataset(kind: str, path: str | None = None, seed: int = 0,
                 n_samples: int = BLOB_SAMPLES) -> tuple[np.ndarray, np.ndarray]:
    """Load features (n, 100) in [0, 1] and labels (n,) in 0..9."""
    if kind == "mnist_idx":
        if not path:
            raise ContractViolation("mnist_idx needs a path")
        return load_mnist_idx(path)
    if kind == "cifar10_binary":
        if not path:
            raise ContractViolation("cifar10_binary needs a path")
        return load_cifar10_binary(path)
    if kind == "synthetic_blobs":
        return synthetic_blobs(seed, n_samples=n_samples)
    raise ContractViolation(f"unknown dataset kind {kind!r}, expected one of {DATASET_KINDS}")
