"""Lifted encryption: hand-checked toy values plus randomized properties."""

import random

import pytest

from ivxvsim.elgamal import (
    Ciphertext,
    NotACandidate,
    RandomnessMismatch,
    decrypt,
    encrypt,
    keygen,
    make_keypair,
    rerandomize,
    trapdoor_decrypt,
)
from ivxvsim.groups import setup
from ivxvsim.seeding import Stream

TOY = setup("toy", 8)


def toy_keys(sk=3):
    return make_keypair(TOY, sk)


def test_keygen_forced_secret():
    pk, sk = toy_keys(3)
    assert sk.sk == 3
    assert pk.h == 8  # 2^3 mod 23


def test_keygen_public_key_relation():
    rng = Stream(11, "elgamal")
    for _ in range(50):
        pk, sk = keygen(TOY, rng)
        assert 1 <= sk.sk < TOY.q
        assert pk.h == pow(TOY.g, sk.sk, TOY.p)
        assert TOY.is_element(pk.h)


def test_make_keypair_rejects_bad_secret():
    with pytest.raises(ValueError):
        make_keypair(TOY, 0)
    with pytest.raises(ValueError):
        make_keypair(TOY, TOY.q)


def test_encrypt_hand_value():
    pk, _ = toy_keys()
    assert encrypt(pk, 2, 5) == Ciphertext(9, 18)


def test_encrypt_zero_message_zero_randomness():
    pk, _ = toy_keys()
    assert encrypt(pk, 0, 0) == Ciphertext(1, 1)


def test_encrypt_message_out_of_range():
    pk, _ = toy_keys()
    with pytest.raises(ValueError):
        encrypt(pk, TOY.candidate_bound, 5)
    with pytest.raises(ValueError):
        encrypt(pk, -1, 5)


def test_decrypt_hand_value():
    _, sk = toy_keys()
    assert decrypt(sk, Ciphertext(9, 18)) == 2


def test_decrypt_roundtrip_exhaustive_toy():
    pk, sk = toy_keys()
    for m in range(TOY.candidate_bound):
        for r in range(TOY.q):
            assert decrypt(sk, encrypt(pk, m, r)) == m


def test_decrypt_rejects_non_candidate_plaintext():
    pk, sk = toy_keys()
    # c2 carries g^C, one past the last valid candidate.
    c1 = pow(TOY.g, 1, TOY.p)
    c2 = pow(TOY.g, TOY.candidate_bound, TOY.p) * pow(pk.h, 1, TOY.p) % TOY.p
    with pytest.raises(NotACandidate):
        decrypt(sk, Ciphertext(c1, c2))


def test_rerandomize_zero_is_identity():
    pk, _ = toy_keys()
    ct = encrypt(pk, 2, 5)
    assert rerandomize(pk, ct, 0) == ct


def test_rerandomize_hand_value():
    pk, sk = toy_keys()
    ct2 = rerandomize(pk, Ciphertext(9, 18), 1)
    assert ct2 == Ciphertext(18, 6)
    assert decrypt(sk, ct2) == 2


def test_rerandomize_preserves_plaintext():
    pk, sk = toy_keys()
    rng = random.Random(7)
    for _ in range(200):
        m = rng.randrange(TOY.candidate_bound)
        ct = encrypt(pk, m, rng.randrange(TOY.q))
        ct2 = rerandomize(pk, ct, rng.randrange(TOY.q))
        assert decrypt(sk, ct2) == m


def test_rerandomize_composes():
    # Iterated re-randomization equals a single one with the summed scalar.
    pk, sk = toy_keys()
    rng = random.Random(9)
    for _ in range(100):
        m = rng.randrange(TOY.candidate_bound)
        r0 = rng.randrange(TOY.q)
        ct = encrypt(pk, m, r0)
        total = r0
        for _ in range(10):
            step = rng.randrange(TOY.q)
            ct = rerandomize(pk, ct, step)
            total = (total + step) % TOY.q
        assert ct == encrypt(pk, m, total)
        assert decrypt(sk, ct) == m


def test_ciphertext_components_stay_in_subgroup():
    pk, _ = toy_keys()
    rng = random.Random(13)
    for _ in range(200):
        ct = encrypt(pk, rng.randrange(TOY.candidate_bound), rng.randrange(TOY.q))
        assert TOY.is_element(ct.c1)
        assert TOY.is_element(ct.c2)


def test_trapdoor_hand_value():
    pk, _ = toy_keys()
    assert trapdoor_decrypt(pk, Ciphertext(9, 18), 5) == 2


def test_trapdoor_wrong_randomness():
    pk, _ = toy_keys()
    with pytest.raises(RandomnessMismatch):
        trapdoor_decrypt(pk, Ciphertext(9, 18), 4)


def test_trapdoor_matches_encryption_inputs():
    pk, _ = toy_keys()
    rng = random.Random(21)
    for _ in range(300):
        m = rng.randrange(TOY.candidate_bound)
        r = rng.randrange(TOY.q)
        assert trapdoor_decrypt(pk, encrypt(pk, m, r), r) == m


def test_trapdoor_agrees_with_decrypt():
    pk, sk = toy_keys()
    rng = random.Random(23)
    for _ in range(200):
        m = rng.randrange(TOY.candidate_bound)
        r = rng.randrange(TOY.q)
        ct = encrypt(pk, m, r)
        assert trapdoor_decrypt(pk, ct, r) == decrypt(sk, ct)


def test_trapdoor_rejects_non_candidate():
    pk, _ = toy_keys()
    c1 = pow(TOY.g, 2, TOY.p)
    c2 = pow(TOY.g, TOY.candidate_bound, TOY.p) * pow(pk.h, 2, TOY.p) % TOY.p
    with pytest.raises(NotACandidate):
        trapdoor_decrypt(pk, Ciphertext(c1, c2), 2)


def test_standard_group_roundtrip():
    params = setup("standard", 16)
    rng = Stream(31, "elgamal")
    pk, sk = keygen(params, rng)
    for _ in range(10):
        m = rng.below(params.candidate_bound)
        r = rng.below(params.q)
        ct = encrypt(pk, m, r)
        assert decrypt(sk, ct) == m
        assert trapdoor_decrypt(pk, ct, r) == m
        r2 = rng.below(params.q)
        assert decrypt(sk, rerandomize(pk, ct, r2)) == m
