"""Dataset parsing (IDX, CIFAR-10 binary) and the synthetic blob generator."""

import inspect
import struct

import numpy as np
import pytest

from otgrad.core import ContractViolation, NumericalDomainError
from otgrad.benchmarks import make_problem
from otgrad.benchmarks.datasets import (
    CIFAR_RECORD,
    FEATURE_DIM,
    IDX_IMAGE_MAGIC,
    IDX_LABEL_MAGIC,
    BLOB_SAMPLES,
    downsize_images,
    load_dataset,
    parse_cifar10_binary,
    parse_idx_images,
    parse_idx_labels,
    pooling_matrix,
    synthetic_blobs,
)


def idx_image_bytes(n, side, fill=None):
    header = struct.pack(">IIII", IDX_IMAGE_MAGIC, n, side, side)
    if fill is None:
        body = bytes((i * 7) % 256 for i in range(n * side * side))
    else:
        body = bytes([fill]) * (n * side * side)
    return header + body


def idx_label_bytes(labels):
    return struct.pack(">II", IDX_LABEL_MAGIC, len(labels)) + bytes(labels)


def cifar_record(label, fill):
    return bytes([label]) + bytes([fill]) * (CIFAR_RECORD - 1)


class TestPooling:
    def test_rows_are_stochastic(self):
        for side in (10, 12, 28, 32):
            p = pooling_matrix(side)
            assert p.shape == (10, side)
            assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)

    def test_same_size_is_identity(self):
        assert np.array_equal(pooling_matrix(10, 10), np.eye(10))

    def test_constant_image_pools_to_constant(self):
        imgs = np.full((2, 28, 28), 0.6)
        feats = downsize_images(imgs)
        assert feats.shape == (2, FEATURE_DIM)
        assert np.allclose(feats, 0.6, atol=1e-12)

    def test_upscaling_rejected(self):
        with pytest.raises(ContractViolation):
            pooling_matrix(8)

    def test_bad_image_shape_rejected(self):
        with pytest.raises(ContractViolation):
            downsize_images(np.zeros((2, 12, 14)))


class TestIdxParsing:
    def test_roundtrip(self):
        imgs = parse_idx_images(idx_image_bytes(3, 12))
        assert imgs.shape == (3, 12, 12)
        assert imgs.min() >= 0.0 and imgs.max() <= 1.0

    def test_bad_image_magic(self):
        data = struct.pack(">IIII", 0xDEADBEEF, 1, 4, 4) + bytes(16)
        with pytest.raises(NumericalDomainError):
            parse_idx_images(data)

    def test_truncated_image_body(self):
        with pytest.raises(NumericalDomainError):
            parse_idx_images(idx_image_bytes(3, 12)[:-5])

    def test_short_image_header(self):
        with pytest.raises(NumericalDomainError):
            parse_idx_images(b"\x00\x00\x08\x03")

    def test_label_roundtrip(self):
        labels = parse_idx_labels(idx_label_bytes([0, 5, 9]))
        assert labels.tolist() == [0, 5, 9]
        assert labels.dtype == np.int64

    def test_bad_label_magic(self):
        data = struct.pack(">II", IDX_IMAGE_MAGIC, 3) + bytes(3)
        with pytest.raises(NumericalDomainError):
            parse_idx_labels(data)

    def test_truncated_labels(self):
        with pytest.raises(NumericalDomainError):
            parse_idx_labels(idx_label_bytes([1, 2, 3])[:-1])


class TestMnistLoading:
    def write_pair(self, tmp_path, n=4, side=12):
        img = tmp_path / "train-images-idx3-ubyte"
        lab = tmp_path / "train-labels-idx1-ubyte"
        img.write_bytes(idx_image_bytes(n, side))
        lab.write_bytes(idx_label_bytes(list(range(n))))
        return img, lab

    def test_load_from_directory(self, tmp_path):
        self.write_pair(tmp_path)
        feats, labels = load_dataset("mnist_idx", path=str(tmp_path))
        assert feats.shape == (4, FEATURE_DIM)
        assert labels.tolist() == [0, 1, 2, 3]
        assert feats.min() >= 0.0 and feats.max() <= 1.0

    def test_load_from_image_file_path(self, tmp_path):
        img, _ = self.write_pair(tmp_path)
        feats, labels = load_dataset("mnist_idx", path=str(img))
        assert feats.shape == (4, FEATURE_DIM)

    def test_count_mismatch_rejected(self, tmp_path):
        img = tmp_path / "train-images-idx3-ubyte"
        lab = tmp_path / "train-labels-idx1-ubyte"
        img.write_bytes(idx_image_bytes(4, 12))
        lab.write_bytes(idx_label_bytes([1, 2]))
        with pytest.raises(NumericalDomainError):
            load_dataset("mnist_idx", path=str(tmp_path))

    def test_missing_labels_rejected(self, tmp_path):
        img = tmp_path / "train-images-idx3-ubyte"
        img.write_bytes(idx_image_bytes(2, 12))
        with pytest.raises(ContractViolation):
            load_dataset("mnist_idx", path=str(img))

    def test_missing_path_rejected(self):
        with pytest.raises(ContractViolation):
            load_dataset("mnist_idx")
        with pytest.raises(ContractViolation):
            load_dataset("mnist_idx", path="/nonexistent/dir")


class TestCifarLoading:
    def test_parse_two_records(self):
        data = cifar_record(3, 90) + cifar_record(7, 180)
        gray, labels = parse_cifar10_binary(data)
        assert labels.tolist() == [3, 7]
        assert gray.shape == (2, 32, 32)
        assert np.allclose(gray[0], 90.0 / 255.0, atol=1e-12)
        assert np.allclose(gray[1], 180.0 / 255.0, atol=1e-12)

    def test_bad_length_rejected(self):
        with pytest.raises(NumericalDomainError):
            parse_cifar10_binary(bytes(CIFAR_RECORD + 1))
        with pytest.raises(NumericalDomainError):
            parse_cifar10_binary(b"")

    def test_load_from_directory(self, tmp_path):
        (tmp_path / "data_batch_1.bin").write_bytes(cifar_record(1, 30))
        (tmp_path / "data_batch_2.bin").write_bytes(cifar_record(2, 60))
        feats, labels = load_dataset("cifar10_binary", path=str(tmp_path))
        assert feats.shape == (2, FEATURE_DIM)
        assert labels.tolist() == [1, 2]

    def test_empty_directory_rejected(self, tmp_path):
        with pytest.raises(ContractViolation):
            load_dataset("cifar10_binary", path=str(tmp_path))

    def test_missing_path_rejected(self):
        with pytest.raises(ContractViolation):
            load_dataset("cifar10_binary")


class TestSyntheticBlobs:
    def test_one_default_sample_count(self):
        # the generator, the loader and an mlp without n_samples make as many blobs
        for fn in (synthetic_blobs, load_dataset):
            assert inspect.signature(fn).parameters["n_samples"].default == BLOB_SAMPLES
        problem = make_problem("mlp", n_hidden=1).problem
        x, y = load_dataset("synthetic_blobs", seed=0)
        assert problem.n_samples == BLOB_SAMPLES == len(y)
        assert problem.x.tobytes() == x.tobytes()

    def test_shapes_and_ranges(self):
        x, y = synthetic_blobs(1)
        assert x.shape == (1280, FEATURE_DIM)
        assert y.shape == (1280,)
        assert x.min() >= 0.0 and x.max() <= 1.0
        assert y.min() == 0 and y.max() == 9

    def test_balanced_classes(self):
        _, y = synthetic_blobs(1)
        assert np.bincount(y, minlength=10).tolist() == [128] * 10

    def test_uneven_split(self):
        _, y = synthetic_blobs(0, n_samples=37)
        counts = np.bincount(y, minlength=10)
        assert counts.sum() == 37
        assert counts.min() == 3 and counts.max() == 4

    def test_determinism_and_seed_sensitivity(self):
        x1, y1 = synthetic_blobs(1)
        x2, y2 = synthetic_blobs(1)
        x3, _ = synthetic_blobs(2)
        assert np.array_equal(x1, x2) and np.array_equal(y1, y2)
        assert not np.array_equal(x1, x3)

    def test_too_few_samples_rejected(self):
        with pytest.raises(ContractViolation):
            synthetic_blobs(0, n_samples=9)

    def test_classes_are_separable_by_mean_pattern(self):
        x, y = synthetic_blobs(3, n_samples=500)
        centroids = np.stack([x[y == c].mean(axis=0) for c in range(10)])
        # Every class mean should sit closest to its own centroid.
        d = np.linalg.norm(centroids[:, None, :] - centroids[None, :, :], axis=2)
        np.fill_diagonal(d, np.inf)
        assert d.min() > 0.1


class TestLoadDatasetDispatch:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ContractViolation):
            load_dataset("imagenet")

    def test_synthetic_default(self):
        x, y = load_dataset("synthetic_blobs", seed=4, n_samples=40)
        assert x.shape == (40, FEATURE_DIM) and y.shape == (40,)
