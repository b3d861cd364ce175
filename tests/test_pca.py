"""Jacobi eigensolver and PCA tests, checked against an independent solver."""

import hashlib

import numpy as np
import pytest

from knowmap.errors import (
    DegenerateInputError,
    DimensionMismatchError,
    InvalidConfigError,
    TooFewRowsError,
)
from knowmap.pca import fit_pca, jacobi_eigh, transform


def random_symmetric(seed, d=6):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(d, d))
    return (m + m.T) / 2.0


def test_jacobi_one_by_one():
    values, vectors = jacobi_eigh(np.array([[5.0]]))
    assert values[0] == 5.0
    assert vectors[0, 0] == 1.0


def test_jacobi_known_two_by_two():
    # eigenvalues of [[2,1],[1,2]] are 1 and 3
    values, vectors = jacobi_eigh(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert np.allclose(values, [1.0, 3.0], atol=1e-12)
    assert np.allclose(np.abs(vectors[:, 1]), [1.0 / np.sqrt(2)] * 2, atol=1e-12)


def test_jacobi_rejects_bad_input():
    with pytest.raises(DimensionMismatchError):
        jacobi_eigh(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        jacobi_eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("seed", range(10))
def test_jacobi_matches_reference_solver(seed):
    a = random_symmetric(seed)
    values, vectors = jacobi_eigh(a)
    ref_values, ref_vectors = np.linalg.eigh(a)
    assert np.allclose(values, ref_values, atol=1e-10)
    for i in range(a.shape[0]):
        v, u = vectors[:, i], ref_vectors[:, i]
        assert min(np.linalg.norm(v - u), np.linalg.norm(v + u)) < 1e-8


@pytest.mark.parametrize("seed", range(10))
def test_jacobi_reconstructs_the_matrix(seed):
    a = random_symmetric(seed)
    values, vectors = jacobi_eigh(a)
    assert np.all(np.diff(values) >= 0.0)
    assert np.allclose(vectors.T @ vectors, np.eye(a.shape[0]), atol=1e-9)
    assert np.allclose(vectors @ np.diag(values) @ vectors.T, a, atol=1e-9)


# sha256 of values.tobytes() + vectors.tobytes() of jacobi_eigh(random_symmetric(d, d)):
# the solver's bits at widths the drift pins do not reach (they reach only d = 8)
JACOBI_SHA256 = {
    2: "3c9eeab89031ccc5da31f8f542adce52f627db461a7fa5098a8454df2b5b9765",
    8: "de8ac271646164c84f2d8d95372c7fdc1f91e3a0c4e680040c87ac5275a20245",
    33: "053a4017b7086dc170c203ef94ff7fb4b814c083ae4cab2d6c7cb6f38915c3ee",
}


@pytest.mark.parametrize("d", sorted(JACOBI_SHA256))
def test_jacobi_bits_are_pinned(d):
    values, vectors = jacobi_eigh(random_symmetric(d, d))
    assert hashlib.sha256(values.tobytes() + vectors.tobytes()).hexdigest() == JACOBI_SHA256[d]


def test_fit_pca_collinear_rows():
    # points on the line through [3,4]: variance 125/3 along [0.6, 0.8], none across
    data = np.array([[0.0, 0.0], [3.0, 4.0], [6.0, 8.0], [9.0, 12.0]])
    model = fit_pca(data, components=2)
    assert np.allclose(model.components[0], [0.6, 0.8], atol=1e-12)
    assert model.explained_variance[0] == pytest.approx(125.0 / 3.0, rel=1e-12)
    assert model.explained_variance[1] == pytest.approx(0.0, abs=1e-12)
    assert model.total_variance == pytest.approx(125.0 / 3.0, rel=1e-12)


def test_fit_pca_axis_aligned():
    data = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 0.5], [0.0, -0.5]])
    model = fit_pca(data, components=2)
    assert np.allclose(model.components[0], [1.0, 0.0], atol=1e-12)
    assert np.allclose(model.components[1], [0.0, 1.0], atol=1e-12)
    assert model.explained_variance[0] == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert model.explained_variance[1] == pytest.approx(1.0 / 6.0, rel=1e-12)


@pytest.mark.parametrize("seed", range(8))
def test_fit_pca_sign_anchor_is_positive(seed):
    rng = np.random.default_rng(seed)
    model = fit_pca(rng.normal(size=(15, 5)), components=3)
    for axis in model.components:
        assert axis[np.argmax(np.abs(axis))] > 0.0


@pytest.mark.parametrize("seed", range(8))
def test_fit_pca_components_orthonormal(seed):
    rng = np.random.default_rng(seed)
    model = fit_pca(rng.normal(size=(12, 6)), components=4)
    gram = model.components @ model.components.T
    assert np.allclose(gram, np.eye(4), atol=1e-9)
    assert np.all(np.diff(model.explained_variance) <= 1e-12)


def test_fit_pca_input_validation():
    with pytest.raises(TooFewRowsError):
        fit_pca(np.zeros((1, 3)))
    with pytest.raises(DimensionMismatchError):
        fit_pca(np.zeros(5))
    with pytest.raises(InvalidConfigError, match=r"components must be in \[1, 2\], got 0"):
        fit_pca(np.zeros((4, 2)), components=0)
    with pytest.raises(InvalidConfigError, match=r"components must be in \[1, 2\], got 3"):
        fit_pca(np.zeros((4, 2)), components=3)


def test_fit_pca_degenerate_rows():
    with pytest.raises(DegenerateInputError):
        fit_pca(np.ones((5, 3)))


def test_transform_centers_the_fit_rows():
    rng = np.random.default_rng(3)
    data = rng.normal(loc=4.0, size=(20, 5))
    model = fit_pca(data, components=2)
    projected = transform(model, data)
    assert projected.shape == (20, 2)
    assert np.allclose(projected.mean(axis=0), 0.0, atol=1e-10)
    # variance along the first axis is exactly the top eigenvalue
    assert np.var(projected[:, 0], ddof=1) == pytest.approx(
        model.explained_variance[0], abs=1e-10
    )


def test_transform_checks_width():
    model = fit_pca(np.random.default_rng(0).normal(size=(6, 4)), components=2)
    with pytest.raises(DimensionMismatchError):
        transform(model, np.zeros((3, 5)))


def test_fit_is_deterministic():
    rng = np.random.default_rng(9)
    data = rng.normal(size=(10, 4))
    a = fit_pca(data)
    b = fit_pca(data)
    assert a.components.tobytes() == b.components.tobytes()
    assert a.explained_variance.tobytes() == b.explained_variance.tobytes()


def test_fit_pca_needs_three_rows():
    # two points always define a perfect line; the fit requires at least three
    with pytest.raises(TooFewRowsError):
        fit_pca(np.array([[0.0, 0.0], [1.0, 1.0]]))


def test_transform_maps_the_mean_to_the_origin():
    rng = np.random.default_rng(11)
    data = rng.normal(size=(12, 6))
    model = fit_pca(data, components=2)
    projected = transform(model, model.mean.reshape(1, -1))
    assert np.allclose(projected, 0.0, atol=1e-12)


def test_transform_is_affine():
    rng = np.random.default_rng(12)
    data = rng.normal(size=(15, 5))
    model = fit_pca(data, components=2)
    a = rng.normal(size=5)
    b = rng.normal(size=5)
    combined = transform(model, (a + b - model.mean).reshape(1, -1))
    separate = transform(model, a.reshape(1, -1)) + transform(model, b.reshape(1, -1))
    assert np.allclose(combined, separate, atol=1e-10)


def test_first_axis_maximises_variance():
    # no random unit direction may beat the leading component
    rng = np.random.default_rng(13)
    data = rng.normal(size=(30, 8))
    model = fit_pca(data, components=2)
    centered = data - model.mean
    best = model.explained_variance[0]
    for _ in range(1000):
        direction = rng.normal(size=8)
        direction /= np.linalg.norm(direction)
        spread = np.var(centered @ direction, ddof=1)
        assert spread <= best + 1e-8
