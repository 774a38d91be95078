"""Encoder forward/backward and Adam."""

import numpy as np
import pytest

from dataclasses import replace

import loop_reference
from fcre.encoder import (
    AdamState,
    BilinearForm,
    EncoderParams,
    _adam,
    _backward,
    _embed,
    encode,
    encode_backward,
    encode_batch,
    init_adam,
    init_bilinear,
    init_encoder,
    step,
)
from helpers import num_grad, rel_err


def same_bits(a, b) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def small_params(seed=42, f=5, h=4, d=3):
    return init_encoder(f, h, d, np.random.default_rng(seed))


def backward(params, acts, grad_out):
    """``_backward`` into a fresh flat gradient, as training writes it into its buffer's views."""
    out = np.empty(params.n_params)
    _backward(params, acts, grad_out, params._views(out))
    return out


class TestEncode:
    def test_matches_explicit_loop_oracle(self):
        rng = np.random.default_rng(42)
        params = small_params()
        for _ in range(10):
            x = rng.normal(size=5)
            hidden = [
                np.tanh(sum(params.w1[i, j] * x[j] for j in range(5)) + params.b1[i])
                for i in range(4)
            ]
            expected = [
                np.tanh(sum(params.w2[i, j] * hidden[j] for j in range(4)) + params.b2[i])
                for i in range(3)
            ]
            np.testing.assert_allclose(encode(params, x), expected, rtol=1e-12)

    def test_zero_params_give_zero_embedding(self):
        params = EncoderParams(
            w1=np.zeros((4, 5)), b1=np.zeros(4), w2=np.zeros((3, 4)), b2=np.zeros(3)
        )
        assert np.array_equal(encode(params, np.ones(5)), np.zeros(3))

    def test_identity_weights_compose_tanh_twice(self):
        params = EncoderParams(w1=np.eye(3), b1=np.zeros(3), w2=np.eye(3), b2=np.zeros(3))
        x = np.array([0.3, -1.2, 2.0])
        np.testing.assert_allclose(encode(params, x), np.tanh(np.tanh(x)), rtol=1e-12)

    def test_output_strictly_inside_unit_box(self):
        rng = np.random.default_rng(0)
        params = small_params()
        for _ in range(20):
            z = encode(params, rng.normal(size=5) * 50.0)
            assert np.all(np.abs(z) < 1.0)

    def test_wrong_feature_dim_rejected(self):
        with pytest.raises(ValueError, match="expects 5"):
            encode(small_params(), np.ones(6))


class TestEncodeBackward:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            params = init_encoder(5, 4, 3, rng)
            x = rng.normal(size=5)
            grad_out = rng.normal(size=3)
            analytic = encode_backward(params, x, grad_out)

            def objective(vec):
                return float(np.dot(grad_out, encode(params.with_vector(vec), x)))

            fd = num_grad(objective, params.to_vector(), eps=1e-6)
            assert rel_err(analytic, fd) < 1e-7

    def test_linear_in_grad_out(self):
        rng = np.random.default_rng(1)
        params = small_params()
        x = rng.normal(size=5)
        g = rng.normal(size=3)
        np.testing.assert_allclose(
            encode_backward(params, x, 2.0 * g),
            2.0 * encode_backward(params, x, g),
            rtol=1e-12,
        )

    def test_grad_out_shape_checked(self):
        with pytest.raises(ValueError, match="grad_out"):
            encode_backward(small_params(), np.ones(5), np.ones(4))

    @pytest.mark.parametrize(
        "grad_out, message",
        [
            ([np.nan, 0.0], r"^grad_out\[0\] must be a finite numeric value, got nan$"),  # gave a non-finite gradient
            (np.array([0.0, np.inf]), r"^grad_out contains non-finite entries$"),
            ([True, 0.0], r"^grad_out\[0\] must be a finite numeric value, got True$"),
            ([[0.5, 0.0]], r"^grad_out\[0\] must be a finite numeric value, got \[0\.5, 0\.0\]$"),
        ],
    )
    def test_grad_out_entries_checked(self, grad_out, message):
        params = small_params(f=3, h=4, d=2)
        with pytest.raises(ValueError, match=message):
            encode_backward(params, [1.0, 2.0, 3.0], grad_out)


class TestEncodeBatch:
    def test_rows_match_per_row_encode(self):
        # BLAS sums a matrix-vector and a matrix-matrix product in different
        # orders, so rows agree to rounding rather than bit for bit
        rng = np.random.default_rng(42)
        for n in (1, 2, 7, 33, 64):
            params = init_encoder(32, 32, 16, rng)
            x = rng.normal(size=(n, 32))
            batched = encode_batch(params, x)
            rows = np.stack([encode(params, row) for row in x])
            np.testing.assert_allclose(batched, rows, rtol=1e-13, atol=1e-15)

    def test_backward_is_sum_of_per_row_backward(self):
        rng = np.random.default_rng(42)
        for n in (1, 2, 7, 33, 64):
            params = init_encoder(32, 32, 16, rng)
            x = rng.normal(size=(n, 32))
            grad_out = rng.normal(size=(n, 16))
            grad_out[::3] = 0.0  # rows that receive no gradient
            expected = sum(
                encode_backward(params, row, g) for row, g in zip(x, grad_out)
            )
            np.testing.assert_allclose(
                backward(params, _embed(params, x), grad_out), expected, rtol=1e-12, atol=1e-14
            )

    def test_backward_from_kept_activations_matches_one_shot(self):
        rng = np.random.default_rng(3)
        params = init_encoder(32, 32, 16, rng)
        x = rng.normal(size=(32, 32))
        grad_out = rng.normal(size=(32, 16))
        acts = _embed(params, x)
        assert np.array_equal(acts.z, encode_batch(params, x))
        assert np.array_equal(
            backward(params, acts, grad_out), backward(params, _embed(params, x), grad_out)
        )

    def test_backward_has_the_bits_of_fresh_products(self):
        rng = np.random.default_rng(11)
        params = small_params(f=32, h=32, d=16)
        acts = _embed(params, rng.normal(size=(33, 32)))
        grad_out = rng.normal(size=(33, 16))
        grad_out[3] = -0.0
        assert same_bits(backward(params, acts, grad_out), loop_reference.backward(params, acts, grad_out))

    def test_all_zero_upstream_gives_zero_gradient(self):
        params = small_params()
        x = np.random.default_rng(1).normal(size=(4, 5))
        grads = backward(params, _embed(params, x), np.zeros((4, 3)))
        assert np.array_equal(grads, np.zeros(params.n_params))

    def test_shapes_checked(self):
        params = small_params()
        with pytest.raises(ValueError, match="expects 5"):
            encode_batch(params, np.ones((2, 6)))
        with pytest.raises(ValueError, match="non-empty"):
            encode_batch(params, np.ones(5))
        with pytest.raises(ValueError, match="non-finite"):
            encode_batch(params, np.full((2, 5), np.nan))


class TestParamsVector:
    def test_round_trip_exact(self):
        params = small_params()
        rebuilt = params.with_vector(params.to_vector())
        assert np.array_equal(rebuilt.w1, params.w1)
        assert np.array_equal(rebuilt.b1, params.b1)
        assert np.array_equal(rebuilt.w2, params.w2)
        assert np.array_equal(rebuilt.b2, params.b2)

    def test_packing_order_w1_b1_w2_b2(self):
        params = small_params()
        vec = params.to_vector()
        assert vec[0] == params.w1[0, 0]
        assert vec[20] == params.b1[0]  # after 4x5 W1 block
        assert vec[24] == params.w2[0, 0]  # after b1
        assert vec[36] == params.b2[0]  # after 3x4 W2 block

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="39"):
            small_params().with_vector(np.zeros(7))

    @pytest.mark.parametrize("index, name", [(0, "w1"), (20, "b1"), (24, "w2"), (38, "b2")])
    def test_non_finite_entry_names_its_array(self, index, name):
        vec = small_params().to_vector()
        vec[index] = np.inf
        with pytest.raises(ValueError, match=f"{name} contains non-finite"):
            small_params().with_vector(vec)

    def test_rebuilt_params_do_not_alias_the_vector(self):
        params = small_params()
        vec = params.to_vector()
        rebuilt = params.with_vector(vec)
        vec[:] = 0.0
        assert np.array_equal(rebuilt.to_vector(), params.to_vector())

    def test_shape_consistency_enforced(self):
        with pytest.raises(ValueError, match="disagree"):
            EncoderParams(
                w1=np.zeros((4, 5)), b1=np.zeros(4), w2=np.zeros((3, 7)), b2=np.zeros(3)
            )


class TestInit:
    def test_uniform_bounds_scale_with_fan_in(self):
        params = init_encoder(16, 9, 4, np.random.default_rng(42))
        assert np.max(np.abs(params.w1)) <= 1.0 / 4.0
        assert np.max(np.abs(params.b1)) <= 1.0 / 4.0
        assert np.max(np.abs(params.w2)) <= 1.0 / 3.0
        assert np.max(np.abs(params.b2)) <= 1.0 / 3.0

    def test_deterministic_given_seed(self):
        a = init_encoder(6, 5, 4, np.random.default_rng(123))
        b = init_encoder(6, 5, 4, np.random.default_rng(123))
        assert np.array_equal(a.to_vector(), b.to_vector())

    @pytest.mark.parametrize(
        "init, pattern",
        [
            (lambda rng: init_encoder(4, 0, 3, rng), "hidden_dim"),
            (lambda rng: init_encoder(3, 2.5, 2, rng), r"^hidden_dim must be an integer, got 2\.5$"),
            (lambda rng: init_encoder(True, 3, 2, rng), r"^feature_dim must be an integer, got True$"),
            (lambda rng: init_bilinear(2.5, rng), r"^embed_dim must be an integer, got 2\.5$"),
            (lambda rng: init_adam(2.5), r"^n_params must be an integer, got 2\.5$"),
            (lambda rng: init_bilinear(0, rng), r"^embed_dim must be >= 1, got 0$"),
            (lambda rng: init_adam(0), r"^n_params must be >= 1, got 0$"),
        ],
    )
    def test_bad_dims_rejected(self, init, pattern):
        with pytest.raises(ValueError, match=pattern):
            init(np.random.default_rng(0))

    def test_numpy_integer_sizes_accepted(self):
        a = init_encoder(np.int64(6), np.int32(5), np.uint8(4), np.random.default_rng(1))
        b = init_encoder(6, 5, 4, np.random.default_rng(1))
        assert np.array_equal(a.to_vector(), b.to_vector())
        assert init_adam(np.int64(3)).m.shape == (3,)

    def test_bilinear_starts_near_identity(self):
        w = init_bilinear(8, np.random.default_rng(42))
        assert np.max(np.abs(w.matrix - np.eye(8))) < 0.05

    def test_bilinear_deterministic(self):
        a = init_bilinear(5, np.random.default_rng(9))
        b = init_bilinear(5, np.random.default_rng(9))
        assert np.array_equal(a.matrix, b.matrix)

    def test_bilinear_must_be_square(self):
        with pytest.raises(ValueError, match="square"):
            BilinearForm(matrix=np.zeros((2, 3)))

    def test_bilinear_must_be_finite(self):
        with pytest.raises(ValueError, match=r"^bilinear matrix contains non-finite entries$"):
            BilinearForm(matrix=np.array([[1.0, np.nan], [0.0, 1.0]]))

    @pytest.mark.parametrize(
        "edit, pattern",
        [
            ({"w1": np.zeros(5)}, r"^w1 must be a non-empty 2-D array, got shape \(5,\)$"),
            ({"w2": np.zeros((3, 4, 1))}, r"^w2 must be a non-empty 2-D array, got shape \(3, 4, 1\)$"),
            ({"b1": np.zeros(3)}, r"^bias shapes do not match weight shapes$"),
            ({"b2": np.zeros((3, 1))}, r"^b2 must be a non-empty 1-D array, got shape \(3, 1\)$"),
            ({"w1": np.full((4, 5), np.nan)}, r"^w1 contains non-finite entries$"),
            ({"b2": np.array([0.0, np.inf, 0.0])}, r"^b2 contains non-finite entries$"),
        ],
    )
    def test_malformed_encoder_weights_rejected(self, edit, pattern):
        params = small_params()  # f=5, h=4, d=3
        weights = {"w1": params.w1, "b1": params.b1, "w2": params.w2, "b2": params.b2}
        with pytest.raises(ValueError, match=pattern):
            EncoderParams(**{**weights, **edit})

    @pytest.mark.parametrize(
        "shapes, pattern",
        [
            # each built an encoder that init_encoder and read_checkpoint refuse
            (((0, 3), (0,), (2, 0), (2,)), r"^w1 must be a non-empty 2-D array, got shape \(0, 3\)$"),
            (((4, 0), (4,), (3, 4), (3,)), r"^w1 must be a non-empty 2-D array, got shape \(4, 0\)$"),
            (((4, 5), (4,), (0, 4), (0,)), r"^w2 must be a non-empty 2-D array, got shape \(0, 4\)$"),
        ],
    )
    def test_an_empty_axis_is_rejected(self, shapes, pattern):
        with pytest.raises(ValueError, match=pattern):
            EncoderParams(*(np.zeros(shape) for shape in shapes))

    def test_an_empty_bilinear_matrix_is_rejected(self):
        with pytest.raises(
            ValueError, match=r"^bilinear matrix must be a non-empty 2-D array, got shape \(0, 0\)$"
        ):
            BilinearForm(np.zeros((0, 0)))


class TestAdam:
    def test_single_step_hand_computation(self):
        # From zero state with constant gradient g: m_hat = g, v_hat = g^2,
        # so delta = -lr * g / (|g| + eps).
        opt = init_adam(3)
        params = np.array([1.0, -2.0, 0.5])
        g = np.array([0.3, -0.7, 0.0])
        new_params, new_opt = step(opt, params, g, 0.1)
        expected = params - 0.1 * g / (np.abs(g) + 1e-8)
        np.testing.assert_allclose(new_params, expected, rtol=1e-12)
        assert new_opt.step_count == 1

    def test_multi_step_matches_reference_implementation(self):
        rng = np.random.default_rng(42)
        opt = init_adam(4)
        params = rng.normal(size=4)
        ref_params = params.copy()
        m = np.zeros(4)
        v = np.zeros(4)
        for t in range(1, 6):
            g = rng.normal(size=4)
            params, opt = step(opt, params, g, 0.05)
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            m_hat = m / (1.0 - 0.9**t)
            v_hat = v / (1.0 - 0.999**t)
            ref_params = ref_params - 0.05 * m_hat / (np.sqrt(v_hat) + 1e-8)
            np.testing.assert_allclose(params, ref_params, rtol=1e-12)
        assert opt.step_count == 5

    def test_pure_step_and_in_place_update_agree_bit_for_bit(self):
        rng = np.random.default_rng(3)
        n = 12
        grads = [rng.normal(size=n) * 10.0 ** rng.integers(-8, 4, size=n) for _ in range(5)]
        grads[1][:4] = 0.0
        grads[2][:4] = -0.0  # a zero gradient of either sign, on moments already nonzero
        grads[3][4:8] = -0.0  # and on moments that were zero so far
        opt = init_adam(n)
        params = rng.normal(size=n)
        in_place = replace(opt, m=opt.m.copy(), v=opt.v.copy())
        vec = params.copy()
        ref = (params.copy(), np.zeros(n), np.zeros(n), 0)
        for g in grads:
            params, opt = step(opt, params, g, 0.01)
            _adam(in_place, vec, g, np.empty((2, n)), 0.01)
            ref = loop_reference.adam_step(ref[1], ref[2], ref[3], 0.01, ref[0], g)
            for pure, updated, expression in zip((params, opt.m, opt.v), (vec, in_place.m, in_place.v), ref):
                assert same_bits(pure, updated) and same_bits(pure, expression)
            assert opt.step_count == in_place.step_count == ref[3]

    def test_in_place_update_rejects_a_non_finite_gradient_before_any_change(self):
        opt = init_adam(2)
        params = np.array([1.0, 2.0])
        with pytest.raises(ValueError, match="^gradient contains non-finite entries$"):
            _adam(opt, params, np.array([1.0, np.nan]), np.empty((2, 2)), 1e-3)
        assert opt.step_count == 0 and not opt.m.any() and not opt.v.any()
        assert params.tolist() == [1.0, 2.0]

    def test_original_state_not_mutated(self):
        opt = init_adam(2)
        params = np.array([1.0, 1.0])
        step(opt, params, np.array([1.0, -1.0]), 0.1)
        assert opt.step_count == 0
        assert np.array_equal(opt.m, np.zeros(2))

    def test_shape_mismatch_rejected(self):
        opt = init_adam(3)
        with pytest.raises(ValueError, match="match optimizer size"):
            step(opt, np.zeros(2), np.zeros(2), 1e-3)

    @pytest.mark.parametrize(
        "params, grads, message",
        [
            ([np.nan, 1, 2], [0.1] * 3, r"^params\[0\] must be a finite numeric value, got nan$"),  # gave [nan, 0.9, 1.9]
            (np.array([1.0, np.inf, 2.0]), [0.1] * 3, r"^params contains non-finite entries$"),
            ([True, 1, 2], [0.1] * 3, r"^params\[0\] must be a finite numeric value, got True$"),
            ([0.0, 1.0, 2.0], ["0.1", 0.1, 0.1], r"^grads\[0\] must be a finite numeric value, got '0\.1'$"),
            (np.zeros((1, 3)), [0.1] * 3, r"^params must be a non-empty 1-D array, got shape \(1, 3\)$"),
        ],
    )
    def test_params_and_grads_entries_checked(self, params, grads, message):
        with pytest.raises(ValueError, match=message):
            step(init_adam(3), params, grads, 0.1)

    def test_non_finite_gradient_rejected(self):
        opt = init_adam(2)
        with pytest.raises(ValueError, match="non-finite"):
            step(opt, np.zeros(2), np.array([1.0, float("inf")]), 1e-3)

    def test_learning_rate_must_be_positive(self):
        with pytest.raises(ValueError, match=r"^learning_rate must be positive, got 0\.0$"):
            step(init_adam(2), np.zeros(2), np.zeros(2), 0.0)
