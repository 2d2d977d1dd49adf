"""Lifted ElGamal over a Schnorr group: re-randomizable, and extractable
given the encryption randomness (the cast-as-intended primitive).

Messages are candidate indices m < candidate_bound, encoded as g^m and
recovered by a small linear scan of the exponent range.  Powers of g and
of the public key h go through `groups.fixed_base`, and decryption's one
power of c1 through `groups.power`.
"""

from __future__ import annotations

from typing import NamedTuple

from .groups import GroupParams, fixed_base, power


class NotACandidate(ValueError):
    """Ciphertext does not decrypt to any candidate index below the bound."""


class RandomnessMismatch(ValueError):
    """Claimed encryption randomness does not reproduce the ciphertext."""


class PublicKey(NamedTuple):
    params: GroupParams
    h: int


class SecretKey(NamedTuple):
    params: GroupParams
    sk: int


class Ciphertext(NamedTuple):
    c1: int
    c2: int


def keygen(params: GroupParams, rng) -> tuple[PublicKey, SecretKey]:
    """Draw sk uniform in [1, q) from a `seeding.Stream`, as 1 plus one
    draw below q - 1, and return (pk, sk) with h = g^sk."""
    sk = 1 + rng.below(params.q - 1)
    return make_keypair(params, sk)


def make_keypair(params: GroupParams, sk: int) -> tuple[PublicKey, SecretKey]:
    if not 1 <= sk < params.q:
        raise ValueError("secret key out of range")
    h = fixed_base(params, params.g)(sk)
    return PublicKey(params, h), SecretKey(params, sk)


def encrypt(pk: PublicKey, m: int, r: int) -> Ciphertext:
    """(g^r, g^m * h^r) for a candidate index m < candidate_bound."""
    params = pk.params
    if not 0 <= m < params.candidate_bound:
        raise ValueError(f"message {m} outside candidate range [0, {params.candidate_bound})")
    r %= params.q
    g_pow = fixed_base(params, params.g)
    return Ciphertext(g_pow(r), g_pow(m) * fixed_base(params, pk.h)(r) % params.p)


def _scan_dlog(params: GroupParams, target: int) -> int:
    # linear scan over [0, candidate_bound); the bound is capped at 2^16
    acc = 1
    for m in range(params.candidate_bound):
        if acc == target:
            return m
        acc = acc * params.g % params.p
    raise NotACandidate("no candidate index matches the decrypted element")


def decrypt(sk: SecretKey, ct: Ciphertext) -> int:
    """Recover m from c2 / c1^sk = g^m."""
    params = sk.params
    lifted = ct.c2 * power(params, ct.c1, -sk.sk) % params.p
    return _scan_dlog(params, lifted)


def rerandomize(pk: PublicKey, ct: Ciphertext, r: int) -> Ciphertext:
    """Multiply in a fresh encryption of zero; the plaintext is unchanged."""
    params = pk.params
    r %= params.q
    return Ciphertext(
        ct.c1 * fixed_base(params, params.g)(r) % params.p,
        ct.c2 * fixed_base(params, pk.h)(r) % params.p,
    )


def trapdoor_decrypt(pk: PublicKey, ct: Ciphertext, r: int) -> int:
    """Extract the plaintext from the claimed encryption randomness.

    Checks c1 = g^r and, if so, scans c2 / h^r = c2 * h^(q - r) = g^m (h
    has order q).  This needs no secret key, which is what lets an audit
    device verify a recorded ballot against the voter's intent.
    """
    params = pk.params
    r %= params.q
    if fixed_base(params, params.g)(r) != ct.c1:
        raise RandomnessMismatch("c1 does not match g^r for the claimed randomness")
    lifted = ct.c2 * fixed_base(params, pk.h)(params.q - r) % params.p
    return _scan_dlog(params, lifted)
