import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pkge.segmentation as seg
from pkge.errors import ConfigError, NumericError
from pkge.model import ModelConfig, build_model
from pkge.params import glorot_uniform
from pkge.tensor import Tensor

from reference_ops import reduce_sum


def t(arr):
    return Tensor(np.asarray(arr, dtype=np.float32))


class TestFolding:
    def test_reshape_roundtrip_exact(self):
        rng = np.random.default_rng(0)
        e = t(rng.standard_normal((3, 12)))
        patches = seg.segment_folding(e, 3, 4)
        assert patches.shape == (3, 3, 4)
        assert np.array_equal(patches.data, e.data.reshape(3, 3, 4))
        assert np.array_equal(patches.data.reshape(3, 12), e.data)

    def test_unbatched(self):
        e = t(np.arange(12))
        patches = seg.segment_folding(e, 3, 4)
        assert patches.shape == (3, 4)
        assert np.array_equal(patches.data[1], [4.0, 5.0, 6.0, 7.0])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            seg.segment_folding(t(np.zeros((2, 12))), 5, 3)
        with pytest.raises(ConfigError, match="size 12 does not factor into 0"):
            seg.validate_patch_shape(12, 0, 4)
        with pytest.raises(ConfigError, match="patch size must be positive"):
            seg.validate_patch_shape(0, 3, 0)


class TestMapped:
    def test_identity_basis_equals_folding(self):
        # One-hot basis rows make the mapped scheme pick out coordinates
        # exactly, so it must agree with plain reshape bit for bit.
        k, d = 4, 6
        basis = t(np.eye(k * d).reshape(k, d, k * d))
        rng = np.random.default_rng(1)
        e = t(rng.standard_normal((5, k * d)))
        mapped = seg.segment_mapped(e, basis)
        folded = seg.segment_folding(e, k, d)
        assert np.array_equal(mapped.data, folded.data)

    def test_single_row_oracle(self):
        # Patch (i, j) is the inner product of e with basis row (i, j).
        k, d = 2, 3
        rng = np.random.default_rng(2)
        basis = rng.standard_normal((k, d, k * d)).astype(np.float32)
        e = rng.standard_normal((k * d,)).astype(np.float32)
        out = seg.segment_mapped(t(e), t(basis))
        want = np.einsum("n,kdn->kd", e, basis)
        np.testing.assert_allclose(out.data, want, rtol=1e-6, atol=1e-6)

    def test_size_mismatch_rejected(self):
        basis = t(np.zeros((2, 3, 6)))
        with pytest.raises(ConfigError):
            seg.segment_mapped(t(np.zeros((4, 7))), basis)


class TestNoneScheme:
    def test_projection_shape_and_value(self):
        rng = np.random.default_rng(3)
        e = rng.standard_normal((4, 10)).astype(np.float32)
        proj = rng.standard_normal((10, 5)).astype(np.float32)
        out = seg.segment_none(t(e), t(proj))
        assert out.shape == (4, 1, 5)
        np.testing.assert_allclose(out.data[:, 0, :], e @ proj,
                                   rtol=1e-6, atol=1e-6)

    def test_size_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            seg.segment_none(t(np.zeros((2, 9))), t(np.zeros((10, 5))))


def _linear_cases():
    k, d = 4, 6
    frozen = seg.build_frozen_basis(k, d, np.random.default_rng(40))
    trainable = seg.build_trainable_basis(k, d, np.random.default_rng(41))
    proj = glorot_uniform(np.random.default_rng(42), (k * d, d))
    return [
        ("folding", lambda e: seg.segment_folding(e, k, d)),
        ("frozen", lambda e: seg.segment_mapped(e, t(frozen))),
        ("trainable", lambda e: seg.segment_mapped(e, t(trainable))),
        ("none", lambda e: seg.segment_none(e, t(proj))),
    ]


@pytest.mark.parametrize("name,fn", _linear_cases(),
                         ids=[c[0] for c in _linear_cases()])
def test_every_scheme_is_linear(name, fn):
    rng = np.random.default_rng(5)
    x = rng.standard_normal((3, 24)).astype(np.float32)
    y = rng.standard_normal((3, 24)).astype(np.float32)
    a, b = np.float32(0.5), np.float32(-0.25)
    lhs = fn(t(a * x + b * y)).data
    rhs = a * fn(t(x)).data + b * fn(t(y)).data
    np.testing.assert_allclose(lhs, rhs, atol=1e-6)


class TestFrozenBasis:
    def test_orthonormal_within_each_patch(self):
        basis = seg.build_frozen_basis(5, 8, np.random.default_rng(6))
        assert basis.shape == (5, 8, 40)
        assert basis.dtype == np.float32
        assert seg.orthonormality_deviation(basis) <= 1e-6

    def test_blocks_differ(self):
        basis = seg.build_frozen_basis(3, 4, np.random.default_rng(7))
        assert not np.allclose(basis[0], basis[1])

    def test_deterministic_per_seed(self):
        a = seg.build_frozen_basis(3, 4, np.random.default_rng(8))
        b = seg.build_frozen_basis(3, 4, np.random.default_rng(8))
        c = seg.build_frozen_basis(3, 4, np.random.default_rng(9))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    @given(st.integers(1, 6), st.integers(1, 8), st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_orthonormality_any_grid(self, k, d, seed):
        basis = seg.build_frozen_basis(k, d, np.random.default_rng(seed))
        assert seg.orthonormality_deviation(basis) <= 1e-6

    def test_large_model_builds_without_svd(self, monkeypatch):
        def no_svd(*args, **kwargs):
            raise AssertionError("frozen basis must not be built by SVD")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        model = build_model("patreformer", ModelConfig(d_r=1000), 10, 4,
                            np.random.default_rng(10))
        basis = model.params["seg.relation.basis"].data
        assert basis.shape == (20, 50, 1000)
        assert seg.orthonormality_deviation(basis) <= 1e-6

    @pytest.mark.parametrize("k,d", [(3, 4), (20, 50)])
    def test_draws_one_thin_gaussian_block_per_patch(self, k, d):
        # Pins the init stream's cost: each block takes exactly one
        # [k*d, d] standard-normal draw, so the parameters drawn after the
        # basis are fixed for a given seed.
        rng = np.random.default_rng(12)
        seg.build_frozen_basis(k, d, rng)
        ref = np.random.default_rng(12)
        for _ in range(k):
            ref.standard_normal((k * d, d))
        assert rng.random() == ref.random()

    def test_deviation_detects_scaling(self):
        basis = seg.build_frozen_basis(2, 3, np.random.default_rng(11))
        assert seg.orthonormality_deviation(basis * 1.01) > 1e-3

    def test_rank_deficient_draws_raise(self):
        # every draw is the zero matrix, so each of the retries fails
        class ZeroDraws:
            def standard_normal(self, shape):
                return np.zeros(shape)
        with pytest.raises(NumericError, match="full-rank"):
            seg.build_frozen_basis(2, 3, ZeroDraws())

    def test_non_orthonormal_rows_raise(self, monkeypatch):
        real = seg._orthonormal_rows_qr
        monkeypatch.setattr(seg, "_orthonormal_rows_qr",
                            lambda rng, n, d: 1.01 * real(rng, n, d))
        with pytest.raises(NumericError, match="orthonormality"):
            seg.build_frozen_basis(2, 3, np.random.default_rng(11))


class TestTrainableBasis:
    def test_shape_dtype_and_bounds(self):
        basis = seg.build_trainable_basis(3, 5, np.random.default_rng(12))
        assert basis.shape == (3, 5, 15)
        assert basis.dtype == np.float32
        limit = np.sqrt(6.0 / 30.0)
        assert np.max(np.abs(basis)) <= limit
        assert not np.allclose(basis, 0.0)

    def test_backward_builds_no_per_query_stack(self):
        # The basis gradient is one [n, k*d] GEMM over the batch. Summing a
        # [B, n, k*d] float32 stack instead peaks at 41.9 MB here (B=64,
        # n = k*d = 400); the single GEMM peaked at 2.3 MB when measured.
        rng = np.random.default_rng(13)
        basis = Tensor(seg.build_trainable_basis(8, 50, rng), requires_grad=True)
        e = Tensor(rng.standard_normal((64, 400)).astype(np.float32),
                   requires_grad=True)
        loss = reduce_sum(seg.segment_mapped(e, basis))
        tracemalloc.start()
        try:
            loss.backward()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert basis.grad.shape == (8, 50, 400)
        assert peak < 8e6
