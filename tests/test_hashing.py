"""Digest arithmetic and framing: the algebra everything else leans on."""

import random

import pytest

from smartauth import Digest, DigestRng, Hasher
from smartauth.hashing import DigestLengthError, OversizedPartError, encode_parts

from support import raw_hash, xor_bytes


def test_frame_single_part():
    assert encode_parts([b"A"]) == b"\x00\x00\x00\x01A"
    assert encode_parts([b"x" * 300]) == (300).to_bytes(4, "big") + b"x" * 300


def test_frame_empty_and_multi_part():
    assert encode_parts([]) == b""
    assert encode_parts([b"", b"A"]) == b"\x00\x00\x00\x00" + b"\x00\x00\x00\x01A"


def test_frame_keeps_part_boundaries():
    assert encode_parts([b"AB"]) != encode_parts([b"A", b"B"])
    assert encode_parts([b"A", b""]) != encode_parts([b"A"])


def test_frame_is_injective_over_random_part_lists():
    rnd = random.Random(42)
    seen = {}
    for _ in range(1000):
        parts = tuple(rnd.randbytes(rnd.randint(0, 6)) for _ in range(rnd.randint(0, 3)))
        encoded = encode_parts(list(parts))
        if encoded in seen:
            assert seen[encoded] == parts, "two distinct part lists framed identically"
        seen[encoded] = parts


def test_oversized_part_rejected():
    class Huge:
        def __len__(self):
            return 2**32

    with pytest.raises(OversizedPartError):
        encode_parts([Huge()])
    hasher = Hasher()
    with pytest.raises(OversizedPartError):
        hasher.hash(b"x", Huge())
    with pytest.raises(OversizedPartError):
        hasher.hash_uncounted(Huge())


def test_frame_digest_part_same_as_its_bytes():
    assert encode_parts([Digest(b"A")]) == encode_parts([b"A"])
    assert encode_parts((b"", Digest(b"\x00" * 32))) == encode_parts([b"", b"\x00" * 32])


def test_hash_matches_raw_reference():
    rnd = random.Random(7)
    for width in (32, 1, 2):
        hasher = Hasher(width)
        for _ in range(50):
            parts = [rnd.randbytes(rnd.randint(0, 8)) for _ in range(rnd.randint(1, 4))]
            assert bytes(hasher.hash(*parts)) == raw_hash(width, *parts)


def test_hash_accepts_digest_parts():
    hasher = Hasher()
    d = Digest(b"\x01" * 32)
    assert hasher.hash(d, b"x") == hasher.hash(b"\x01" * 32, b"x")


def test_toy8_exhaustive_enumeration():
    hasher = Hasher(1)
    outputs = [hasher.hash(bytes([x])) for x in range(256)]
    assert all(len(o) == 1 for o in outputs)
    assert len(set(outputs)) <= 256
    again = [hasher.hash(bytes([x])) for x in range(256)]
    assert outputs == again


@pytest.mark.parametrize("width", [0, 33])
def test_digest_width_outside_one_to_32_rejected(width):
    # 0 would give empty digests; sha256 has only 32 bytes to truncate.
    # The nonce source keeps the same rule, so a bad width fails at once,
    # not at the first XOR of a nonce with a hash.
    message = f"digest size must be 1 to 32 bytes, not {width}"
    with pytest.raises(ValueError, match=f"^{message}$"):
        Hasher(width)
    with pytest.raises(ValueError, match=f"^{message}$"):
        DigestRng(3, width)


def test_xor_pairwise_properties_exhaustive_width8():
    singles = [Digest(bytes([v])) for v in range(256)]
    zero = Digest(bytes(1))
    for a in singles:
        assert a ^ zero == a
        assert a ^ a == zero
        for b in singles:
            assert a ^ b == b ^ a
            assert (a ^ b) ^ b == a


def test_xor_associative_sampled():
    rnd = random.Random(3)
    for _ in range(20000):
        a, b, c = (Digest(rnd.randbytes(1)) for _ in range(3))
        assert (a ^ b) ^ c == a ^ (b ^ c)


@pytest.mark.parametrize("width", [1, 2, 32])
def test_xor_matches_bytewise_reference(width):
    rnd = random.Random(width)
    for _ in range(500):
        a, b = rnd.randbytes(width), rnd.randbytes(width)
        assert bytes(Digest(a) ^ Digest(b)) == xor_bytes(a, b)


def test_xor_keeps_width_with_leading_zero_bytes():
    assert Digest(b"\x80\x00") ^ Digest(b"\x80\x00") == Digest(b"\x00\x00")
    assert bytes(Digest(b"\x01" * 32) ^ Digest(b"\x01" * 31 + b"\x00")) == bytes(31) + b"\x01"


def test_xor_with_non_digest_raises_type_error():
    with pytest.raises(TypeError):
        Digest(b"a") ^ b"a"


def test_xor_of_bytes_with_digest_raises_type_error():
    with pytest.raises(TypeError):
        b"a" ^ Digest(b"a")


def test_digest_operations_return_digests():
    hasher = Hasher()
    assert type(Digest(b"\x01") ^ Digest(b"\x02")) is Digest
    assert type(hasher.hash(b"x")) is Digest
    assert type(hasher.hash_uncounted(b"x")) is Digest
    assert type(DigestRng(0, 32).digest()) is Digest


def test_digest_is_its_bytes():
    # Deliberate: a digest equals, and hashes like, the same bytes; a
    # slice is plain bytes; only the repr says it is a digest.
    assert Digest(b"a") == b"a"
    assert hash(Digest(b"a")) == hash(b"a")
    assert type(Digest(b"ab")[:1]) is bytes
    assert repr(Digest(b"\x01\xff")) == "Digest(01ff)"


def test_digest_is_slotted():
    assert not hasattr(Digest(b"x"), "__dict__")


def test_xor_width_mismatch_raises():
    with pytest.raises(DigestLengthError):
        Digest(b"\x00") ^ Digest(b"\x00\x00")


def test_counter_counts_each_call():
    hasher = Hasher()
    for n in range(1, 11):
        hasher.hash(b"x")
        assert hasher.count == n
    before = hasher.count
    hasher.hash(b"y", b"z")
    assert hasher.count - before == 1


def test_uncounted_hash_same_digest_no_count():
    hasher = Hasher()
    counted = hasher.hash(b"sample")
    assert hasher.count == 1
    assert hasher.hash_uncounted(b"sample") == counted
    assert hasher.count == 1


def test_digest_rng_deterministic_and_sized():
    a = DigestRng(123, 32)
    b = DigestRng(123, 32)
    assert [a.digest() for _ in range(5)] == [b.digest() for _ in range(5)]
    assert a.salt() == b.salt()
    assert len(a.salt()) == 16
    assert len(DigestRng(0, 2).digest()) == 2


def test_digest_rng_refuses_a_negative_seed():
    # ``random.Random`` seeds with ``abs(seed)``: -1 would draw seed 1's nonces.
    with pytest.raises(ValueError, match="^seed must be non-negative, got -1$"):
        DigestRng(-1, 32)


def test_digest_rng_draws_distinct_nonces():
    rng = DigestRng(9, 32)
    draws = [rng.digest() for _ in range(1000)]
    assert len(set(draws)) == 1000
