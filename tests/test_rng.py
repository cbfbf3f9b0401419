"""RNG stream reproducibility and exact integer draws."""

from __future__ import annotations

from collections import Counter

from treesplit.rng import RngStream


def test_same_key_same_draws():
    a = RngStream(123, (4, 5))
    b = RngStream(123, (4, 5))
    assert a.block(64) == b.block(64)
    assert a.rand_below(10**30) == b.rand_below(10**30)


def test_different_streams_differ():
    a = RngStream(123, (4, 5))
    b = RngStream(123, (4, 6))
    assert a.block(16) != b.block(16)


def test_substream_matches_explicit_key():
    parent = RngStream(9, (2,))
    child = parent.substream(7)
    explicit = RngStream(9, (2, 7))
    assert child.block(16) == explicit.block(16)


def test_int_stream_key_normalized():
    assert RngStream(5, 3).block(8) == RngStream(5, (3,)).block(8)


def test_uniforms_continue_across_blocks_and_drop_the_tail():
    reference = RngStream(21, (3,)).block(8192)
    draws = RngStream(21, (3,)).uniforms()
    assert [next(draws) for _ in range(4096 + 10)] == reference[:4106]
    # the first block is fetched when the iterator is made; dropping the
    # iterator after one draw discards the other 4095
    rng = RngStream(21, (3,))
    next(rng.uniforms())
    assert rng.block(4) == reference[4096:4100]


def test_rand_below_small_uniform():
    rng = RngStream(11)
    counts = Counter(rng.rand_below(5) for _ in range(50_000))
    assert set(counts) == {0, 1, 2, 3, 4}
    for c in counts.values():
        assert abs(c / 50_000 - 0.2) < 0.01


def test_rand_below_huge_in_range():
    rng = RngStream(13)
    n = 37 ** 40  # far beyond 64 bits
    draws = [rng.rand_below(n) for _ in range(200)]
    assert all(0 <= d < n for d in draws)
    assert len(set(draws)) == len(draws)  # collisions are essentially impossible
    # top bit region is reachable (sanity against truncation bias)
    assert max(draws) > n // 3


def test_rand_below_rejects_nonpositive():
    rng = RngStream(1)
    try:
        rng.rand_below(0)
    except ValueError:
        pass
    else:
        raise AssertionError("rand_below(0) must raise")
