"""Stream determinism and splitting behavior."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fgtri import RngStream


def test_same_seed_same_sequence():
    a = RngStream(123, ("x", 4))
    b = RngStream(123, ("x", 4))
    assert [a.next_u64() for _ in range(20)] == [b.next_u64() for _ in range(20)]


def test_known_values_pinned():
    # Frozen output of the counter-based generator; a change here means
    # every seeded artifact in the repo silently changed.
    s = RngStream(0)
    assert [s.next_u64() for _ in range(3)] == [
        12035550249420947055,
        12935080325729570654,
        7141179953334974231,
    ]


def test_child_streams_do_not_disturb_parent():
    parent = RngStream(9)
    first = parent.next_u64()
    parent.child("a").next_u64()
    parent.child("b", 7).next_u64()
    again = RngStream(9)
    assert [first, parent.next_u64()] == [again.next_u64(), again.next_u64()]


def test_children_with_distinct_labels_differ():
    base = RngStream(5)
    seqs = {
        tuple(base.child(label).next_u64() for _ in range(4))
        for label in ("a", "b", 0, 1, "0")
    }
    assert len(seqs) == 5


def test_child_key_equals_the_full_path_fold():
    # child folds only its new labels into the parent's key; the key and
    # the draws must be those of the stream built from the whole path.
    for seed in range(60):
        pick = random.Random(seed)

        def label():
            if pick.random() < 0.5:
                return pick.randrange(-(1 << 100), 1 << 100)
            return "".join(pick.choice("ab0_\u00e9") for _ in
                           range(pick.randrange(4)))

        master = pick.getrandbits(70)
        path = tuple(label() for _ in range(pick.randrange(4)))
        a, b, c = label(), label(), label()
        derived = RngStream(master, path).child(a).child(b, c)
        direct = RngStream(master, path + (a, b, c))
        assert derived.stream_path == direct.stream_path
        assert derived._key == direct._key
        assert [derived.next_u64() for _ in range(4)] == \
            [direct.next_u64() for _ in range(4)]


def test_label_types_are_distinguished():
    assert RngStream(1, (0,)).next_u64() != RngStream(1, ("0",)).next_u64()


@given(st.integers(min_value=1, max_value=1000), st.integers(min_value=0))
@settings(max_examples=200)
def test_randrange_in_bounds(n, seed):
    value = RngStream(seed).randrange(n)
    assert 0 <= value < n


def test_randrange_roughly_uniform():
    stream = RngStream(77)
    counts = [0, 0, 0]
    for _ in range(30000):
        counts[stream.randrange(3)] += 1
    for c in counts:
        assert abs(c / 30000 - 1 / 3) < 0.02


def test_permutation_is_a_permutation():
    perm = RngStream(3).permutation(40)
    assert sorted(perm) == list(range(40))


def test_sample_distinct():
    got = RngStream(8).sample_distinct(10, 7)
    assert len(got) == 7 and len(set(got)) == 7
    with pytest.raises(ValueError):
        RngStream(8).sample_distinct(3, 5)


def test_bernoulli_validation():
    with pytest.raises(ValueError):
        RngStream(1).bernoulli(3, 2)


def _scalar_masks(stream, n, count, bits, start=0):
    """The reference for ``child_masks``: one scalar draw per bit."""
    masks = []
    for i in range(start, start + n):
        child, mask = stream.child(i), 0
        for j in range(count):
            if child.randrange(1 << bits) == 0:
                mask |= 1 << j
        masks.append(mask)
    return masks


def _mask_shapes(bits):
    # Every count from 0 to 130 (across the 64-bit word edge) with small n,
    # then n from 0 to 300 with counts on and off that edge, at shifting
    # child offsets.
    for count in range(131):
        yield (count + bits) % 7, count, 13 * count
    for n in range(0, 301, 20):
        yield n, (64, 65, 1, 130, 3)[n // 20 % 5], 1000 * bits


@pytest.mark.parametrize("bits", range(1, 7))
def test_sample_mask_equals_scalar_loop(bits):
    # child_masks draws each child's stage mask in one numpy pass; it must
    # equal the scalar randrange loop on each child stream.
    for n, count, start in _mask_shapes(bits):
        stream = RngStream(11, ("mask", bits, count))
        assert stream.child_masks(n, count, bits, start) \
            == _scalar_masks(stream, n, count, bits, start)


@pytest.mark.parametrize("bits", range(1, 7))
def test_sample_mask_leaves_stream_where_scalar_loop_does(bits):
    # Neither the scalar loop over child streams nor child_masks moves the
    # parent's counter.
    for n, count, start in _mask_shapes(bits):
        batched, scalar, untouched = (RngStream(12, ("m", count))
                                      for _ in range(3))
        for stream in (batched, scalar, untouched):
            stream.next_u64()
        batched.child_masks(n, count, bits, start)
        _scalar_masks(scalar, n, count, bits, start)
        assert batched.next_u64() == scalar.next_u64() == untouched.next_u64()


def test_child_masks_rejects_bits_below_one():
    for bits in (0, -1):
        with pytest.raises(ValueError):
            RngStream(3).child_masks(4, 4, bits)


def test_bool_label_raises_after_int_label_is_cached():
    from fgtri.rng import _label_hash
    _label_hash(1)
    with pytest.raises(TypeError):
        _label_hash(True)
    with pytest.raises(TypeError):
        RngStream(1, (True,))
