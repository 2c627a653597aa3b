"""Numeric substrate: PRNG, channel reductions, neighbor pairs, softmax, the
gradient checker."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import same_bytes
from fairseg.errors import DeterminismError, DimensionError
from fairseg.numerics import (
    _JUMP_ADD,
    _JUMP_MUL,
    _PCG_MULT,
    BLOCK,
    GradSlot,
    Rng,
    channel_max,
    channel_sum,
    finite_diff_check,
    log_softmax,
    neighbor_pairs,
    relative_error,
    softmax,
)

# First six outputs of the PCG32 (XSH-RR) reference implementation's demo
# configuration: seed 42, stream 54.  Frozen so a silent algorithm change
# cannot slip by.
PCG32_REFERENCE = [
    0xA15C02B7,
    0x7B47F409,
    0xBA1D3330,
    0x83D2F293,
    0xBFA4784B,
    0xCBED606E,
]


def vectors(n):
    return st.lists(
        st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
        min_size=n,
        max_size=n,
    )


class TestRng:
    def test_reference_sequence(self):
        rng = Rng(42, stream=54)
        assert [rng.next_u32() for _ in range(6)] == PCG32_REFERENCE

    def test_same_seed_same_sequence(self):
        a = Rng(987654321)
        b = Rng(987654321)
        assert [a.next_u32() for _ in range(100)] == [
            b.next_u32() for _ in range(100)
        ]

    def test_different_seeds_differ(self):
        a = Rng(1)
        b = Rng(2)
        assert [a.next_u32() for _ in range(8)] != [
            b.next_u32() for _ in range(8)
        ]

    def test_split_is_order_independent(self):
        root = Rng(77)
        first = root.split("alpha")
        _ = root.split("beta")
        root2 = Rng(77)
        _ = root2.split("beta")
        second = root2.split("alpha")
        assert [first.next_u32() for _ in range(10)] == [
            second.next_u32() for _ in range(10)
        ]

    def test_split_labels_distinct(self):
        root = Rng(5)
        a = root.split("x")
        b = root.split("y")
        assert a.next_u32() != b.next_u32() or a.next_u32() != b.next_u32()

    def test_uniform_range(self):
        rng = Rng(9)
        u = rng.uniforms(500)
        assert np.all(u >= 0.0) and np.all(u < 1.0)

    def test_normals_are_finite_and_centered(self):
        z = Rng(4).normals(4001)
        assert z.shape == (4001,)
        assert np.all(np.isfinite(z))
        assert abs(np.mean(z)) < 0.1
        assert abs(np.std(z) - 1.0) < 0.1

    def test_randint_bounds(self):
        rng = Rng(12)
        draws = [rng.randint(7) for _ in range(300)]
        assert min(draws) >= 0 and max(draws) <= 6
        assert set(draws) == set(range(7))

    def test_randint_rejects_bad_bound(self):
        with pytest.raises(DimensionError):
            Rng(1).randint(0)

    def test_randint_rejects_bound_above_32_bits(self):
        # the rejection threshold of a larger bound is one no draw reaches
        rng = Rng(1)
        with pytest.raises(DimensionError):
            rng.randint(2**32 + 1)
        assert rng.randint(2**32) == Rng(1).next_u32()

    def test_shuffle_is_a_permutation(self):
        items = list(range(40))
        out = Rng(8).shuffle(list(items))
        assert sorted(out) == items
        assert out != items


# The one-draw-at-a-time forms the block path replaced, kept as oracles.
def scalar_u32s(rng, n):
    return np.array([rng.next_u32() for _ in range(n)], dtype=np.uint64)


def scalar_uniforms(rng, n):
    out = np.empty(n, dtype=np.float64)
    for i in range(n):
        out[i] = rng.next_u32() * 2.0**-32
    return out


def scalar_normals(rng, n):
    pairs = (n + 1) // 2
    u = np.empty(2 * pairs, dtype=np.float64)
    for i in range(2 * pairs):
        u[i] = (rng.next_u32() + 1.0) * 2.0**-32
    r = np.sqrt(-2.0 * np.log(u[:pairs]))
    theta = 2.0 * np.pi * u[pairs:]
    return np.concatenate([r * np.cos(theta), r * np.sin(theta)])[:n]


# the odd sizes leave normals() one unpaired draw
BLOCK_SIZES = [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7]
STREAMS = {
    "seed0": lambda: Rng(0),
    "seed2^64-1": lambda: Rng(2**64 - 1),
    "split": lambda: Rng(2**64 - 1).split("init/enc0.W"),
}


class TestBlockDraws:
    @pytest.mark.parametrize("n", BLOCK_SIZES)
    @pytest.mark.parametrize("stream", sorted(STREAMS))
    @pytest.mark.parametrize("draw, oracle", [
        ("u32s", scalar_u32s),
        ("uniforms", scalar_uniforms),
        ("normals", scalar_normals),
    ], ids=["u32s", "uniforms", "normals"])
    def test_equals_scalar_path(self, draw, oracle, stream, n):
        block, scalar = STREAMS[stream](), STREAMS[stream]()
        assert same_bytes(getattr(block, draw)(n), oracle(scalar, n))
        assert block.state == scalar.state
        assert [block.next_u32() for _ in range(3)] == [
            scalar.next_u32() for _ in range(3)
        ]
        assert block.randint(1000) == scalar.randint(1000)

    def test_reference_sequence(self):
        assert Rng(42, stream=54).u32s(6).tolist() == PCG32_REFERENCE

    def test_consecutive_blocks_continue_the_stream(self):
        block, scalar = Rng(3), Rng(3)
        got = np.concatenate([block.u32s(5), block.u32s(BLOCK), block.u32s(2)])
        assert same_bytes(got, scalar_u32s(scalar, BLOCK + 7))


@pytest.mark.parametrize("i", [0, 1, 2, BLOCK - 1, BLOCK])
def test_jump_tables_follow_the_lcg_recurrence(i):
    # i LCG steps take state s to mul*s + add*inc (mod 2^64)
    mul, add = 1, 0
    for _ in range(i):
        mul = mul * _PCG_MULT % 2**64
        add = (add * _PCG_MULT + 1) % 2**64
    assert _JUMP_MUL.dtype == _JUMP_ADD.dtype == np.uint64
    assert _JUMP_MUL.shape == _JUMP_ADD.shape == (BLOCK + 1,)
    assert (int(_JUMP_MUL[i]), int(_JUMP_ADD[i])) == (mul, add)


def scattered(seed, shape, specials=()):
    """Normals with +-0.0 and ``specials`` scattered in; the first row is all
    -0.0 and the second all zeros of both signs."""
    rng = Rng(seed)
    n = int(np.prod(shape))
    a = rng.normals(n)
    u = rng.uniforms(n)
    a[u < 0.1] = -0.0
    a[(u >= 0.1) & (u < 0.15)] = 0.0
    for i, value in enumerate(specials):
        a[(u >= 0.15 + 0.03 * i) & (u < 0.18 + 0.03 * i)] = value
    a = a.reshape(shape)
    a[(0,) * (a.ndim - 1)] = -0.0
    a[(0,) * (a.ndim - 2) + (1,)] = np.where(u[: a.shape[-1]] < 0.5, 0.0, -0.0)
    return a


def layouts(a):
    """A (B, H, W, C) array, two strided slices of it, and a channel-major view."""
    major = np.ascontiguousarray(np.moveaxis(a, -1, 0))
    return [a, a[:, 1::2, ::2], a[1:, :, 1:, ::2], np.moveaxis(major, 0, -1)]


CHANNELS = range(1, 301)


class TestChannelReductions:
    """channel_sum / channel_max give np.sum / np.max bytes over the last axis.

    The order is NumPy's for a contiguous row, so a channel-major view is
    compared with NumPy's sum of the same values made contiguous.
    """

    @pytest.mark.parametrize("specials", [(), (np.inf, -np.inf), (np.nan,)],
                             ids=["finite", "inf", "nan"])
    def test_sum_same_bytes(self, specials):
        for c in CHANNELS:
            for a in layouts(scattered(c, (3, 4, 5, c), specials)):
                with np.errstate(invalid="ignore"):
                    want = np.sum(np.ascontiguousarray(a), axis=-1)
                    assert same_bytes(channel_sum(a), want), c

    def test_sum_with_nan_and_inf_together(self):
        """inf - inf makes a NaN whose bits differ from a NaN input's; which
        one a row keeps is unspecified, every other byte is NumPy's."""
        for c in CHANNELS:
            a = scattered(c, (3, 4, 5, c), (np.nan, np.inf, -np.inf))
            with np.errstate(invalid="ignore"):
                got, want = channel_sum(a), np.sum(a, axis=-1)
            nan = np.isnan(want)
            assert np.array_equal(np.isnan(got), nan), c
            assert same_bytes(got[~nan], want[~nan]), c

    def test_max_same_bytes(self):
        """Exact, but for a zero maximum held with both signs, whose sign
        NumPy picks by its SIMD lanes."""
        for c in CHANNELS:
            for a in layouts(scattered(c, (3, 4, 5, c), (np.nan, np.inf, -np.inf))):
                got, want = channel_max(a), np.max(a, axis=-1)
                zero = a == 0
                either = (want == 0) & np.any(zero & np.signbit(a), axis=-1)
                either &= np.any(zero & ~np.signbit(a), axis=-1)
                assert np.array_equal(got[either], want[either]), c
                assert same_bytes(got[~either], want[~either]), c

    def test_float32_same_bytes(self):
        """A float32 array is reduced in float32, in NumPy's float32 order."""
        for c in CHANNELS:
            for a in layouts(scattered(c, (3, 4, 5, c), (np.inf,)).astype(np.float32)):
                want = np.sum(np.ascontiguousarray(a), axis=-1)
                assert same_bytes(channel_sum(a), want), c
                top = channel_max(a)
                assert top.dtype == np.float32
                assert np.array_equal(top, np.max(a, axis=-1)), c

    def test_one_row(self):
        v = scattered(5, (3, 20))[2]
        assert same_bytes(channel_sum(v), np.sum(v))
        assert same_bytes(channel_max(v), np.max(v))


class TestNeighborPairs:
    @pytest.mark.parametrize("window", [3, 5, 7])
    @pytest.mark.parametrize("h, w", [(1, 1), (1, 5), (5, 1), (2, 2), (3, 8)])
    def test_each_unordered_pair_once_in_offset_order(self, window, h, w):
        r = window // 2
        pixels = [(i, j) for i in range(h) for j in range(w)]
        want = {
            frozenset((p, q)) for p in pixels for q in pixels
            if p != q and abs(p[0] - q[0]) <= r and abs(p[1] - q[1]) <= r
        }
        got, offsets = [], []
        for ra, ca, rb, cb in neighbor_pairs(h, w, window):
            rows_a, cols_a = range(h)[ra], range(w)[ca]
            rows_b, cols_b = range(h)[rb], range(w)[cb]
            assert (len(rows_a), len(cols_a)) == (len(rows_b), len(cols_b))
            assert min(len(rows_a), len(cols_a)) > 0
            dr, dc = rows_b[0] - rows_a[0], cols_b[0] - cols_a[0]
            offsets.append((dr, dc))
            got += [frozenset(((i, j), (i + dr, j + dc))) for i in rows_a for j in cols_a]
        assert len(got) == len(set(got)) and set(got) == want
        order = [(0, dc) for dc in range(1, r + 1)] + [
            (dr, dc) for dr in range(1, r + 1) for dc in range(-r, r + 1)
        ]
        assert offsets == [o for o in order if o in offsets]


class TestSoftmax:
    def test_symmetric_input(self):
        np.testing.assert_allclose(
            softmax(np.zeros(3)), np.full(3, 1.0 / 3.0), atol=1e-15
        )

    def test_large_logit_stability(self):
        p = softmax(np.array([1000.0, 0.0]))
        assert np.all(np.isfinite(p))
        assert p[0] == pytest.approx(1.0, abs=1e-12)
        assert p[1] == pytest.approx(0.0, abs=1e-12)

    def test_log_ratio_inputs(self):
        p = softmax(np.log(np.array([1.0, 2.0, 3.0])))
        np.testing.assert_allclose(p, [1 / 6, 2 / 6, 3 / 6], atol=1e-14)

    def test_empty_input(self):
        with pytest.raises(DimensionError):
            softmax(np.array([]))

    @given(vectors(6), st.floats(-500, 500))
    @settings(max_examples=60)
    def test_shift_invariance(self, v, c):
        base = softmax(np.array(v))
        shifted = softmax(np.array(v) + c)
        np.testing.assert_allclose(base, shifted, atol=1e-12)

    @given(vectors(5))
    def test_sums_to_one_and_preserves_order(self, v):
        p = softmax(np.array(v))
        assert abs(p.sum() - 1.0) < 1e-12
        order = np.argsort(np.array(v), kind="stable")
        assert np.all(np.diff(p[order]) >= -1e-15)

    def test_equals_fresh_array_form_and_leaves_input(self):
        logits = Rng(21).normals(7 * 5).reshape(7, 5) * 30.0
        before = logits.copy()
        z = logits - np.max(logits, axis=1, keepdims=True)
        e = np.exp(z)
        fresh = e / np.sum(e, axis=1, keepdims=True)
        assert same_bytes(softmax(logits), fresh)
        assert same_bytes(logits, before)

    @pytest.mark.parametrize("k", range(1, 21))
    def test_equal_the_max_and_sum_forms(self, k):
        logits = scattered(30 + k, (40, k), (-np.inf,)) * 30.0
        logits[:, 0] = np.maximum(logits[:, 0], -1e3)  # no row of only -inf
        z = logits - np.max(logits, axis=1, keepdims=True)
        e = np.exp(z)
        assert same_bytes(softmax(logits), e / np.sum(e, axis=1, keepdims=True))
        log_p = z - np.log(np.sum(np.exp(z), axis=1, keepdims=True))
        assert same_bytes(log_softmax(logits), log_p)

    @pytest.mark.parametrize("k", [1, 3, 9, 20])
    def test_dtype_follows_the_logits(self, k):
        """float32 logits give float32 results by the same formula; other
        dtypes than float32 and float64 are upcast to float64."""
        logits = (scattered(60 + k, (40, k)) * 30.0).astype(np.float32)
        z = logits - np.max(logits, axis=1, keepdims=True)
        e = np.exp(z)
        assert same_bytes(softmax(logits), e / np.sum(e, axis=1, keepdims=True))
        log_p = z - np.log(np.sum(np.exp(z), axis=1, keepdims=True))
        assert same_bytes(log_softmax(logits), log_p)
        for other in (np.float16, np.int64):
            wide = logits.astype(other)
            assert same_bytes(softmax(wide), softmax(wide.astype(np.float64)))
            assert same_bytes(log_softmax(wide), log_softmax(wide.astype(np.float64)))

    def test_log_softmax_consistency(self):
        v = np.array([0.3, -1.2, 2.0, 0.0])
        np.testing.assert_allclose(
            log_softmax(v), np.log(softmax(v)), atol=1e-12
        )


def quadratic(params):
    w = params["w"]
    return GradSlot(value=float(np.sum(w * w)), grads={"w": 2.0 * w})


class TestFiniteDiffCheck:
    def test_quadratic_is_nearly_exact(self):
        w = Rng(15).normals(12)
        err = finite_diff_check(quadratic, {"w": w}, epsilon=1e-6)
        assert err < 1e-8

    def test_corrupted_gradient_is_caught(self):
        def corrupted(params):
            w = params["w"]
            return GradSlot(value=float(np.sum(w * w)), grads={"w": 2.2 * w})

        w = Rng(16).normals(8) + 3.0
        err = finite_diff_check(corrupted, {"w": w}, epsilon=1e-6)
        assert err > 1e-2

    def test_nondeterministic_loss_is_rejected(self):
        calls = [0]

        def flaky(params):
            calls[0] += 1
            return GradSlot(value=float(calls[0]), grads={"w": params["w"]})

        with pytest.raises(DeterminismError):
            finite_diff_check(flaky, {"w": np.ones(2)})

    def test_epsilon_outside_contract(self):
        with pytest.raises(DimensionError):
            finite_diff_check(quadratic, {"w": np.ones(2)}, epsilon=1e-3)

    def test_multiple_blocks(self):
        def bilinear(params):
            a, b = params["a"], params["b"]
            return GradSlot(
                value=float(np.dot(a, b)), grads={"a": b.copy(), "b": a.copy()}
            )

        rng = Rng(17)
        blocks = {"a": rng.normals(6) + 2.0, "b": rng.normals(6) - 2.0}
        assert finite_diff_check(bilinear, blocks) < 1e-7


def test_relative_error_floor():
    assert relative_error(0.0, 0.0) == 0.0
    assert relative_error(1e-15, -1e-15) == pytest.approx(2e-3, rel=1e-6)
