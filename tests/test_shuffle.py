"""Shuffle argument: completeness, soundness, challenges, serialization."""

import dataclasses
import hashlib
import json
import random

import pytest

from ivxvsim import groups, shuffle
from ivxvsim.ceremony import (AuditVerdict, ElectionConfig, ElectionTranscript, audit_transcript,
                             run_election)
from ivxvsim.elgamal import Ciphertext, decrypt, encrypt, keygen, rerandomize
from ivxvsim.groups import (GroupParams, byte_width, encode, hash_scalars, products_equal, setup,
                            unstack)
from ivxvsim.seeding import Stream
from ivxvsim.shuffle import (
    FS_DOMAIN,
    PROOF_MAGIC,
    BadWitness,
    ProofRound,
    ShuffleProof,
    ShuffleStatement,
    ShuffleWitness,
    deserialize_proof,
    prove_shuffle,
    security_rounds,
    serialize_proof,
    shuffle_equations,
    verify_shuffle,
)

TOY = setup("toy", 8)


def make_instance(rng, pk, n, params=TOY):
    ins = tuple(
        encrypt(pk, rng.below(params.candidate_bound), rng.below(params.q))
        for _ in range(n)
    )
    perm = list(range(n))
    rng.shuffle(perm)
    rands = tuple(rng.below(params.q) for _ in range(n))
    outs = tuple(rerandomize(pk, ins[perm[i]], rands[i]) for i in range(n))
    stmt = ShuffleStatement(pk=pk, inputs=ins, outputs=outs)
    return stmt, ShuffleWitness(tuple(perm), rands)


def test_security_rounds():
    assert security_rounds(11) == 20  # 4-bit challenges, 80-bit target
    std = setup("standard", 2)
    assert security_rounds(std.q) == 1
    assert security_rounds((1 << 80) + 1) == 1
    assert security_rounds(3) == 40


def test_identity_shuffle_single_ciphertext():
    pk, _ = keygen(TOY, Stream(1, "test_shuffle"))
    ct = encrypt(pk, 3, 4)
    stmt = ShuffleStatement(pk=pk, inputs=(ct,), outputs=(ct,))
    proof = prove_shuffle(stmt, ShuffleWitness((0,), (0,)), Stream(2, "test_shuffle"))
    assert verify_shuffle(stmt, proof)


def test_completeness_small_batch():
    rng = Stream(3, "test_shuffle")
    pk, _ = keygen(TOY, rng)
    stmt, wit = make_instance(rng, pk, 5)
    proof = prove_shuffle(stmt, wit, rng)
    assert verify_shuffle(stmt, proof)


def test_completeness_across_sizes():
    rng = Stream(4, "test_shuffle")
    for n in [1, 2, 3, 4, 5, 8, 16, 32]:
        pk, _ = keygen(TOY, rng)
        stmt, wit = make_instance(rng, pk, n)
        proof = prove_shuffle(stmt, wit, rng)
        assert verify_shuffle(stmt, proof), f"n={n}"


def test_prove_rejects_wrong_witness():
    rng = Stream(5, "test_shuffle")
    pk, _ = keygen(TOY, rng)
    # Distinct first components so a rotated permutation cannot accidentally
    # match the true one.
    ins = tuple(encrypt(pk, 0, r) for r in range(4))
    rands = (1, 2, 3, 4)
    outs = tuple(rerandomize(pk, ins[i], rands[i]) for i in range(4))
    stmt = ShuffleStatement(pk=pk, inputs=ins, outputs=outs)
    wrong = ShuffleWitness((1, 2, 3, 0), rands)
    with pytest.raises(BadWitness):
        prove_shuffle(stmt, wrong, rng)


def test_witness_validation():
    with pytest.raises(ValueError):
        ShuffleWitness((0, 0), (1, 2))  # not a bijection
    with pytest.raises(ValueError):
        ShuffleWitness((0, 1), (1,))  # length mismatch


def test_statement_validation():
    pk, _ = keygen(TOY, Stream(6, "test_shuffle"))
    ct = encrypt(pk, 1, 2)
    with pytest.raises(ValueError):
        ShuffleStatement(pk=pk, inputs=(ct,), outputs=(ct, ct))
    with pytest.raises(ValueError):
        ShuffleStatement(pk=pk, inputs=(), outputs=())


def tampered_copy(pk, sk, outs, rng):
    """Replace one output with an encryption of a different candidate."""
    i = rng.below(len(outs))
    m = decrypt(sk, outs[i])
    m2 = (m + 1 + rng.below(TOY.candidate_bound - 1)) % TOY.candidate_bound
    fresh = encrypt(pk, m2, rng.below(TOY.q))
    assert fresh != outs[i]  # different plaintext forces a different ciphertext
    return outs[:i] + (fresh,) + outs[i + 1 :], i


def test_soundness_tampered_output():
    rng = Stream(7, "test_shuffle")
    accepts = 0
    for _ in range(100):
        pk, sk = keygen(TOY, rng)
        stmt, wit = make_instance(rng, pk, 4)
        proof = prove_shuffle(stmt, wit, rng)
        bad_outs, _ = tampered_copy(pk, sk, stmt.outputs, rng)
        bad = ShuffleStatement(pk=pk, inputs=stmt.inputs, outputs=bad_outs)
        accepts += verify_shuffle(bad, proof)
    assert accepts == 0


def test_soundness_tampered_input():
    rng = Stream(8, "test_shuffle")
    accepts = 0
    for _ in range(100):
        pk, sk = keygen(TOY, rng)
        stmt, wit = make_instance(rng, pk, 4)
        proof = prove_shuffle(stmt, wit, rng)
        bad_ins, _ = tampered_copy(pk, sk, stmt.inputs, rng)
        bad = ShuffleStatement(pk=pk, inputs=bad_ins, outputs=stmt.outputs)
        accepts += verify_shuffle(bad, proof)
    assert accepts == 0


def test_soundness_wrong_public_key():
    rng = Stream(9, "test_shuffle")
    accepts = 0
    for _ in range(50):
        pk, _ = keygen(TOY, rng)
        stmt, wit = make_instance(rng, pk, 3)
        proof = prove_shuffle(stmt, wit, rng)
        pk2, _ = keygen(TOY, rng)
        while pk2.h == pk.h:
            pk2, _ = keygen(TOY, rng)
        bad = ShuffleStatement(pk=pk2, inputs=stmt.inputs, outputs=stmt.outputs)
        accepts += verify_shuffle(bad, proof)
    assert accepts == 0


def test_proof_not_transferable_between_instances():
    rng = Stream(10, "test_shuffle")
    pk, _ = keygen(TOY, rng)
    stmt1, wit1 = make_instance(rng, pk, 3)
    proof1 = prove_shuffle(stmt1, wit1, rng)
    while True:
        stmt2, _ = make_instance(rng, pk, 3)
        if stmt2.inputs != stmt1.inputs or stmt2.outputs != stmt1.outputs:
            break
    assert not verify_shuffle(stmt2, proof1)


def test_serialization_roundtrip():
    rng = Stream(11, "test_shuffle")
    pk, _ = keygen(TOY, rng)
    stmt, wit = make_instance(rng, pk, 4)
    proof = prove_shuffle(stmt, wit, rng)
    blob = serialize_proof(proof, TOY)
    back = deserialize_proof(blob, TOY)
    assert back == proof
    assert verify_shuffle(stmt, back)
    assert verify_shuffle(stmt, blob)  # raw bytes accepted directly


def test_truncated_or_garbled_proof_rejects():
    rng = Stream(12, "test_shuffle")
    pk, _ = keygen(TOY, rng)
    stmt, wit = make_instance(rng, pk, 3)
    blob = serialize_proof(prove_shuffle(stmt, wit, rng), TOY)
    assert not verify_shuffle(stmt, blob[: len(blob) // 2])
    assert not verify_shuffle(stmt, blob[:-1])
    assert not verify_shuffle(stmt, blob + b"\x00")
    assert not verify_shuffle(stmt, b"")
    assert not verify_shuffle(stmt, b"garbage bytes here")
    with pytest.raises(ValueError):
        deserialize_proof(blob[:-1], TOY)


def test_wrong_round_count_rejects():
    rng = Stream(13, "test_shuffle")
    pk, _ = keygen(TOY, rng)
    stmt, wit = make_instance(rng, pk, 3)
    proof = prove_shuffle(stmt, wit, rng)
    assert len(proof.rounds) == 20
    short = ShuffleProof(n=proof.n, rounds=proof.rounds[:-1])
    assert not verify_shuffle(stmt, short)


def test_wrong_size_rejects():
    rng = Stream(14, "test_shuffle")
    pk, _ = keygen(TOY, rng)
    stmt3, wit3 = make_instance(rng, pk, 3)
    proof3 = prove_shuffle(stmt3, wit3, rng)
    stmt4, _ = make_instance(rng, pk, 4)
    assert not verify_shuffle(stmt4, proof3)


def test_fs_challenge_deterministic():
    params = setup("standard", 2)
    t = b"some transcript bytes"
    assert hash_scalars(FS_DOMAIN, t, params, 1) == hash_scalars(FS_DOMAIN, t, params, 1)
    assert hash_scalars(b"a", t, params, 1) == hash_scalars(b"a", t, params, 1)


def test_fs_challenge_sensitive_to_input():
    # Collision odds in the toy field are 1/11, so sensitivity is checked
    # against the 2047-bit order where a collision would be astonishing.
    params = setup("standard", 2)
    t = bytearray(b"some transcript bytes")
    c0 = hash_scalars(FS_DOMAIN, bytes(t), params, 1)[0]
    t[0] ^= 1
    assert hash_scalars(FS_DOMAIN, bytes(t), params, 1)[0] != c0
    assert hash_scalars(b"x", b"some transcript bytes", params, 1)[0] != c0


def test_fs_challenge_empty_input_defined():
    for params in (TOY, setup("standard", 2)):
        c = hash_scalars(FS_DOMAIN, b"", params, 1)[0]
        assert 0 <= c < params.q


def test_fs_challenge_range():
    rng = random.Random(15)
    for _ in range(500):
        data = rng.randbytes(rng.randrange(64))
        assert 0 <= hash_scalars(FS_DOMAIN, data, TOY, 1)[0] < 11


def test_standard_group_shuffle():
    params = setup("standard", 4)
    rng = Stream(16, "test_shuffle")
    pk, sk = keygen(params, rng)
    stmt, wit = make_instance(rng, pk, 3, params)
    proof = prove_shuffle(stmt, wit, rng)
    assert len(proof.rounds) == 1
    assert verify_shuffle(stmt, proof)
    # multiset of plaintexts is preserved
    ins = sorted(decrypt(sk, c) for c in stmt.inputs)
    outs = sorted(decrypt(sk, c) for c in stmt.outputs)
    assert ins == outs


# ------------------------------------ soundness in the standard group
# The toy tests above cannot reach the large-modulus arithmetic (Jacobi
# membership, comb tables, multi-exponentiation); these reach it through
# one n=2 proof.

ELEMENT_FIELDS = ("perm_commits", "chain_commits", "t1", "t2", "t3", "t4a", "t4b", "t_hat")
SCALAR_FIELDS = ("s_bar", "s_dot", "s_tld", "s_r", "s_hat", "s_prm")


@pytest.fixture(scope="module")
def standard_proof():
    params = setup("standard", 4)
    rng = Stream(18, "test_shuffle")
    pk, _ = keygen(params, rng)
    stmt, wit = make_instance(rng, pk, 2, params)
    proof = prove_shuffle(stmt, wit, rng)
    assert verify_shuffle(stmt, proof)
    return stmt, proof


def with_round(proof, **changes):
    return ShuffleProof(n=proof.n, rounds=(dataclasses.replace(proof.rounds[0], **changes),))


def test_field_lists_cover_the_proof_round():
    assert {f.name for f in dataclasses.fields(ProofRound)} == {*ELEMENT_FIELDS, *SCALAR_FIELDS}
    assert len(ELEMENT_FIELDS + SCALAR_FIELDS) == 14


@pytest.mark.parametrize("field,change", [(f, "plus-one") for f in ELEMENT_FIELDS + SCALAR_FIELDS]
                         + [(f, "times-g") for f in ELEMENT_FIELDS])
def test_standard_group_rejects_each_changed_field(standard_proof, field, change):
    # +1 mod p for elements (in or out of the group), +1 mod q for scalars;
    # times g keeps an element in the group, so the equations must catch it
    stmt, proof = standard_proof
    params = stmt.pk.params
    if field in SCALAR_FIELDS:
        bump = lambda x: (x + 1) % params.q
    elif change == "plus-one":
        bump = lambda x: (x + 1) % params.p
    else:
        bump = lambda x: x * params.g % params.p
    value = getattr(proof.rounds[0], field)
    changed = (bump(value[0]), *value[1:]) if isinstance(value, tuple) else bump(value)
    assert not verify_shuffle(stmt, with_round(proof, **{field: changed}))


def test_standard_group_rejects_non_residues(standard_proof):
    # p - x = (-1) * x is a non-residue: -1 is one, since p = 3 mod 4
    stmt, proof = standard_proof
    params = stmt.pk.params
    p = params.p
    assert p % 4 == 3
    commits = proof.rounds[0].perm_commits
    assert not params.is_element(p - commits[0])
    assert not verify_shuffle(stmt, with_round(proof, perm_commits=(p - commits[0], *commits[1:])))
    first = stmt.inputs[0]
    assert not params.is_element(p - first.c2)
    bad = ShuffleStatement(pk=stmt.pk, inputs=(Ciphertext(first.c1, p - first.c2), *stmt.inputs[1:]),
                           outputs=stmt.outputs)
    assert not verify_shuffle(bad, proof)


def test_standard_group_rejects_an_honest_proof_over_a_non_residue():
    # The prover does not test membership, so it proves a shuffle whose
    # first input has c1 = p - x, of order 2q.  With this seed the stray
    # signs cancel in every equation: only the membership test rejects it.
    params = setup("standard", 4)
    rng = Stream(0, "test_shuffle")
    pk, _ = keygen(params, rng)
    ins = [encrypt(pk, rng.below(4), rng.below(params.q)) for _ in range(2)]
    ins[0] = Ciphertext(params.p - ins[0].c1, ins[0].c2)
    perm, rands = (1, 0), tuple(rng.below(params.q) for _ in range(2))
    outs = tuple(rerandomize(pk, ins[perm[i]], rands[i]) for i in range(2))
    stmt = ShuffleStatement(pk=pk, inputs=tuple(ins), outputs=outs)
    proof = prove_shuffle(stmt, ShuffleWitness(perm, rands), rng)
    assert not verify_shuffle(stmt, proof)


def test_standard_group_shuffle_builds_tables_only_for_fixed_bases():
    # Each commitment generator is used once by the prover and once by the
    # verifier, so it enters a multi-exponentiation and gets no comb table:
    # with n = 4 only g, h and the commitment base have one.
    shuffle._generators.cache_clear()
    groups._COMBS.clear()
    params = setup("standard", 4)
    rng = Stream(19, "test_shuffle")
    pk, _ = keygen(params, rng)
    stmt, wit = make_instance(rng, pk, 4, params)
    proof = prove_shuffle(stmt, wit, rng)
    assert verify_shuffle(stmt, proof)
    assert len(groups._COMBS) <= 3
    # the t3 and t4b equations, each one product over 2n bases, still bind
    for field in ("t3", "t4b"):
        changed = getattr(proof.rounds[0], field) * params.g % params.p
        assert not verify_shuffle(stmt, with_round(proof, **{field: changed}))



# --------------------------------------------- batched verification

def test_standard_group_rejects_changes_that_cancel_in_an_unweighted_product(standard_proof):
    # Each pair puts one equation off by g and another off by 1/g, so the
    # product of all equations without weights still holds.  Changing t1,
    # t2 or t_hat also changes gamma; shifting the responses s_bar, s_dot
    # or s_hat leaves every challenge as it was, so only the weights
    # reject those pairs.
    stmt, proof = standard_proof
    params = stmt.pk.params
    p, q, g = params.p, params.q, params.g
    g_inverse = pow(g, -1, p)
    pr = proof.rounds[0]
    assert not verify_shuffle(stmt, with_round(proof, t1=pr.t1 * g % p, t2=pr.t2 * g_inverse % p))
    t_hat = (pr.t_hat[0] * g % p, pr.t_hat[1] * g_inverse % p, *pr.t_hat[2:])
    assert not verify_shuffle(stmt, with_round(proof, t_hat=t_hat))
    assert not verify_shuffle(stmt, with_round(proof, s_bar=(pr.s_bar + 1) % q,
                                               s_dot=(pr.s_dot - 1) % q))
    s_hat = ((pr.s_hat[0] + 1) % q, (pr.s_hat[1] - 1) % q, *pr.s_hat[2:])
    assert not verify_shuffle(stmt, with_round(proof, s_hat=s_hat))


def test_standard_group_verifier_is_one_weighted_product(monkeypatch):
    # n = 3: checking each equation takes 7 full-size variable-base pows
    # in this module and 3 multi-exponentiations; the batch takes none of
    # the first and 2 of the second
    params = setup("standard", 4)
    rng = Stream(29, "test_shuffle")
    pk, _ = keygen(params, rng)
    stmt, wit = make_instance(rng, pk, 3, params)
    proof = prove_shuffle(stmt, wit, rng)
    big_pows, products = [], []
    original_multi_exp = groups.multi_exp

    def counting_pow(*args):
        if len(args) == 3 and args[2].bit_length() >= 2048:
            big_pows.append(args)
        return pow(*args)

    def counting_multi_exp(*args):
        products.append(args)
        return original_multi_exp(*args)

    monkeypatch.setattr(shuffle, "pow", counting_pow, raising=False)
    monkeypatch.setattr(groups, "multi_exp", counting_multi_exp)
    monkeypatch.setattr(shuffle, "multi_exp", counting_multi_exp)
    assert verify_shuffle(stmt, proof)
    assert len(big_pows) == 0
    assert len(products) <= 2

# ------------------------------------------------------- proof codec (v2)

def toy_blob(seed, n=3):
    rng = Stream(seed, "test_shuffle")
    pk, _ = keygen(TOY, rng)
    stmt, wit = make_instance(rng, pk, n)
    return stmt, serialize_proof(prove_shuffle(stmt, wit, rng), TOY)


HEADER_LEN = len(PROOF_MAGIC) + 8


def with_header(blob, n=None, rounds=None):
    """The blob with some of its header fields replaced."""
    pos = len(PROOF_MAGIC)
    head = bytearray(blob[:HEADER_LEN])
    for value, start in ((n, pos), (rounds, pos + 4)):
        if value is not None:
            head[start : start + 4] = value.to_bytes(4, "big")
    return bytes(head) + blob[HEADER_LEN:]


def widened(blob):
    """The same values, each encoded two bytes wide instead of one."""
    return blob[:HEADER_LEN] + encode(blob[HEADER_LEN:], 2)


def test_proof_length_is_fixed_by_header_and_group():
    stmt, blob = toy_blob(20, n=3)
    assert blob[: len(PROOF_MAGIC)] == b"IVXVSHF4"
    assert len(blob) == HEADER_LEN + 20 * (5 * 3 + 9) * 1
    assert len(serialize_proof(deserialize_proof(blob, TOY), setup("standard", 8))) \
        == HEADER_LEN + 20 * (5 * 3 + 9) * 256


def test_serialization_is_canonical():
    # every blob that deserializes re-serializes to exactly the same bytes
    stmt, blob = toy_blob(21)
    rng = random.Random(22)
    parsed = 0
    for _ in range(400):
        mutated = bytearray(blob)
        for _ in range(rng.randrange(1, 4)):
            mutated[rng.randrange(len(mutated))] = rng.randrange(256)
        try:
            back = deserialize_proof(bytes(mutated), TOY)
        except ValueError:
            continue
        parsed += 1
        assert serialize_proof(back, TOY) == bytes(mutated)
    assert parsed > 100
    assert serialize_proof(deserialize_proof(blob, TOY), TOY) == blob


@pytest.mark.parametrize("edit", [
    widened,                                         # wider than the group's p
    lambda b: with_header(b, n=4),
    lambda b: with_header(b, rounds=19),
    lambda b: with_header(b, n=0),
    lambda b: with_header(b, n=2**20 + 1),
    lambda b: b[:-1],                                # one byte missing
    lambda b: b + b"\x00",                           # one byte extra
    lambda b: b[: HEADER_LEN - 1],                   # truncated header
    # a length the header agrees with, but not the group's 20 repetitions
    lambda b: with_header(b[:-24], rounds=19),
    lambda b: with_header(b + b[-24:], rounds=21),
])
def test_malformed_blob_raises_value_error(edit):
    stmt, blob = toy_blob(23)
    with pytest.raises(ValueError):
        deserialize_proof(edit(blob), TOY)
    assert not verify_shuffle(stmt, edit(blob))


@pytest.mark.parametrize("preset,bad", [("toy", -1), ("toy", 256), ("mid", -1),
                                        ("mid", 2**392)])
def test_a_value_that_does_not_fit_the_width_is_rejected_without_exception(preset, bad):
    # a ShuffleProof is serialized before it is checked: a negative value,
    # or one wider than p, has no encoding and states no equations
    params = setup(preset, 4)
    rng = Stream(40, "test_shuffle")
    pk, _ = keygen(params, rng)
    stmt, wit = make_instance(rng, pk, 2, params)
    proof = prove_shuffle(stmt, wit, rng)
    for field in ("perm_commits", "t1", "s_bar", "s_prm"):
        value = getattr(proof.rounds[0], field)
        changed = (bad, *value[1:]) if isinstance(value, tuple) else bad
        tampered = ShuffleProof(proof.n, (dataclasses.replace(proof.rounds[0], **{field: changed}),
                                          *proof.rounds[1:]))
        assert shuffle_equations(stmt, tampered) is None, field
        assert not verify_shuffle(stmt, tampered), field


@pytest.mark.parametrize("preset", ["toy", "mid"])
def test_a_proof_and_its_bytes_state_identical_equations(preset):
    # the verifier hashes the posted bytes, not a re-encoding of decoded
    # values; a ShuffleProof is serialized first, so both give one list
    params = setup(preset, 4)
    rng = Stream(37, "test_shuffle")
    pk, _ = keygen(params, rng)
    stmt, wit = make_instance(rng, pk, 3, params)
    proof = prove_shuffle(stmt, wit, rng)
    blob = serialize_proof(proof, params)
    from_proof = list(shuffle_equations(stmt, proof))
    assert len(list(unstack(from_proof))) == security_rounds(params.q) * (5 + 3)
    assert from_proof == list(shuffle_equations(stmt, blob))
    assert from_proof == list(shuffle_equations(stmt, bytearray(blob)))


def test_v1_magic_rejected_without_exception():
    stmt, blob = toy_blob(25)
    assert not verify_shuffle(stmt, b"IVXVSHF1" + blob[len(PROOF_MAGIC) :])
    with pytest.raises(ValueError):
        deserialize_proof(b"IVXVSHF1" + blob[len(PROOF_MAGIC) :], TOY)


# ------------------------------------------------------ challenge vector

def gammas_of(digest, messages, params):
    """Every repetition's gamma, one per repetition's encoded messages."""
    return [gamma for (gamma,) in shuffle._challenges(b"gamma", digest, messages, params, 1)]


def second_messages(proof):
    """Each repetition's chain, t1..t4b and t_hat, as gamma hashes them."""
    return [[*pr.chain_commits, pr.t1, pr.t2, pr.t3, pr.t4a, pr.t4b, *pr.t_hat]
            for pr in proof.rounds]


def test_challenge_vector_binds_commitments_round_and_statement():
    # every repetition's u is cut from one stream over all repetitions'
    # permutation commitments: one changed commitment of any repetition
    # changes every repetition's u (nine entries mod 11 each, so a u kept
    # by chance has odds 11^-9)
    rng = Stream(26, "test_shuffle")
    pk, _ = keygen(TOY, rng)
    stmt, wit = make_instance(rng, pk, 9)
    other, _ = make_instance(rng, pk, 9)
    assert other.to_bytes() != stmt.to_bytes()
    commits = [list(pr.perm_commits) for pr in prove_shuffle(stmt, wit, rng).rounds]
    digest = hashlib.sha256(stmt.to_bytes()).digest()

    def vectors(commits, digest=digest):
        return shuffle._challenges(b"u", digest, [encode(c, 1) for c in commits], TOY, 9)

    base = vectors(commits)
    assert len(base) == security_rounds(TOY.q) == len(commits)
    assert all(len(u) == 9 and all(0 <= x < TOY.q for x in u) for u in base)
    for rnd in range(len(commits)):
        for i in (0, 4, 8):
            changed = [c[:] for c in commits]
            changed[rnd][i] = changed[rnd][i] * TOY.g % TOY.p
            assert all(map(list.__ne__, vectors(changed), base)), f"round {rnd}, commitment {i}"
    # the rounds' order: two repetitions swapped change every u
    swapped = [commits[1], commits[0], *commits[2:]]
    assert all(map(list.__ne__, vectors(swapped), base))
    assert all(map(list.__ne__, vectors(commits, hashlib.sha256(other.to_bytes()).digest()), base))


def test_gammas_bind_every_repetitions_messages():
    # every gamma is cut from one stream over all repetitions' messages.
    # A toy gamma takes 11 values, so one change keeps each other gamma
    # with odds 1/11: each change must move the gamma list, and for every
    # repetition changed, each gamma must move under one of its eight
    # changes (kept by all eight with odds 11^-8).  Hashed one repetition
    # at a time, no change would move another repetition's gamma.
    rng = Stream(36, "test_shuffle")
    pk, _ = keygen(TOY, rng)
    n = 9
    stmt, wit = make_instance(rng, pk, n)
    proof = prove_shuffle(stmt, wit, rng)
    digest = hashlib.sha256(stmt.to_bytes()).digest()
    perm = [list(pr.perm_commits) for pr in proof.rounds]
    rest = second_messages(proof)

    def gammas(perm, rest):
        return gammas_of(digest, [encode(c + r, 1) for c, r in zip(perm, rest)], TOY)

    base = gammas(perm, rest)
    # t1's rows come first, one per repetition, -gamma their second exponent
    t1_rows = list(unstack(shuffle_equations(stmt, proof)))[: len(rest)]
    assert base == [-eq[1][1] for eq in t1_rows]
    g, p = TOY.g, TOY.p
    # chain, t1 .. t4b and t_hat positions of the second message
    positions = (0, n - 1, n, n + 1, n + 2, n + 3, n + 4, 2 * n + 4)
    for rnd in range(len(rest)):
        moved = set()
        for i in positions:
            changed = [r[:] for r in rest]
            changed[rnd][i] = changed[rnd][i] * g % p
            new = gammas(perm, changed)
            assert new != base, f"round {rnd}, value {i}"
            moved.update(k for k, (a, b) in enumerate(zip(new, base)) if a != b)
        assert moved == set(range(len(rest))), f"round {rnd}"
        # gamma hashes the permutation commitments too
        changed = [c[:] for c in perm]
        changed[rnd][0] = changed[rnd][0] * g % p
        assert gammas(changed, rest) != base


def verifier_reading(stmt, rounds):
    """Each repetition's u, gamma and equations as the verifier derives
    them: -gamma is t1's second exponent and -u_j * gamma t3's last n
    exponents, so u is None where gamma is 0.  The verifier's rows are
    regrouped by repetition: at this n, t1, t2, t3, t4a and t4b are R rows
    each, one per repetition, and then come the n t_hat of each repetition."""
    n, count = len(stmt.inputs), len(rounds)
    equations = list(unstack(shuffle_equations(stmt, ShuffleProof(n=n, rounds=tuple(rounds)))))
    assert 2 * n + 1 <= count and len(equations) == count * (5 + n)
    reading = []
    for r in range(count):
        t_hat = 5 * count + r * n
        eqs = equations[r : 5 * count : count] + equations[t_hat : t_hat + n]
        gamma = -eqs[0][1][1]
        reading.append(([e // -gamma for e in eqs[2][1][-n:]] if gamma else None, gamma, eqs))
    return reading


def forge_by_repetition(stmt, rng, budget):
    """A forger that grinds one repetition at a time: for each repetition
    it guesses gamma, draws random responses, solves every verification
    equation for its commitment, and reads the challenges again until its
    gamma matches the guess; then it moves on.  Each reading hashes each
    challenge phase once.  Returns the first proof the verifier accepts
    within `budget` readings, or None, and how many readings matched a
    guess with every equation of that repetition holding, and without."""
    pk = stmt.pk
    params = pk.params
    p, q, g = params.p, params.q, params.g
    n = len(stmt.inputs)
    base, gens, gens_inverse = shuffle._generators(p, q, g, n)
    element = lambda: pow(g, 1 + rng.below(q - 1), p)
    scalars = lambda count: [rng.below(q) for _ in range(count)]

    def product(pairs):
        acc = 1
        for b, e in pairs:
            acc = acc * pow(b, e % q, p) % p
        return acc

    def solve(perm_commits, u, gamma):
        """A repetition whose every equation holds for this u and gamma."""
        chain = [element() for _ in range(n)]
        s_bar, s_dot, s_tld, s_r = scalars(4)
        s_hat, s_prm = scalars(n), scalars(n)
        c_bar = product([(gens_inverse, 1), *((c, 1) for c in perm_commits)])
        neg_u = [-u_j * gamma for u_j in u]
        prod_u = 1
        for u_j in u:
            prod_u = prod_u * u_j % q
        outs_ins = lambda k: zip([ct[k] for ct in stmt.outputs + stmt.inputs], s_prm + neg_u)
        return ProofRound(
            perm_commits=tuple(perm_commits), chain_commits=tuple(chain),
            t1=product([(g, s_bar), (c_bar, -gamma)]),
            t2=product([(g, s_dot), (chain[-1], -gamma), (base, prod_u * gamma)]),
            t3=product([(g, s_tld), *zip(gens, s_prm), *zip(perm_commits, neg_u)]),
            t4a=product([(g, -s_r), *outs_ins(0)]),
            t4b=product([(pk.h, -s_r), *outs_ins(1)]),
            t_hat=tuple(product([(g, s_hat[i]), ((base, *chain)[i], s_prm[i]),
                                 (chain[i], -gamma)]) for i in range(n)),
            s_bar=s_bar, s_dot=s_dot, s_tld=s_tld, s_r=s_r, s_hat=tuple(s_hat),
            s_prm=tuple(s_prm))

    n_rounds = security_rounds(q)
    perm_commits = [[element() for _ in range(n)] for _ in range(n_rounds)]
    rounds = [solve(c, [0] * n, 0) for c in perm_commits]
    # u depends on the permutation commitments alone, which stay fixed; a
    # reading shows the u of every repetition whose gamma is not 0
    known, readings, sound, unsound = [None] * n_rounds, 0, 0, 0
    while None in known:
        readings += 1
        for r, (u, _, _) in enumerate(verifier_reading(stmt, rounds)):
            known[r] = known[r] or u
            rounds[r] = solve(perm_commits[r], [0] * n, 0)
    while readings < budget:
        for r in range(n_rounds):
            while readings < budget:
                guess = rng.below(q)
                rounds[r] = solve(perm_commits[r], known[r], guess)
                readings += 1
                _, gamma, equations = verifier_reading(stmt, rounds)[r]
                if gamma == guess:
                    if products_equal(params, equations):
                        sound += 1
                    else:
                        unsound += 1
                    break
        proof = ShuffleProof(n=n, rounds=tuple(rounds))
        if verify_shuffle(stmt, proof):
            return proof, sound, unsound
    return None, sound, unsound


def test_a_repetition_by_repetition_forger_gets_no_proof_accepted():
    # a false toy statement: every input encrypts 0 and every output 1.
    # Were each repetition hashed alone, each gamma could be ground alone,
    # about q readings per repetition: 600 readings would do for 20
    # repetitions of q = 11 (mean 220, standard deviation 47).  Hashed over
    # all repetitions, each one ground moves every gamma matched before it.
    rng = Stream(0, "forger")
    pk, _ = keygen(TOY, rng)
    encrypt_all = lambda m: tuple(encrypt(pk, m, rng.below(TOY.q)) for _ in range(2))
    stmt = ShuffleStatement(pk=pk, inputs=encrypt_all(0), outputs=encrypt_all(1))
    forged, sound, unsound = forge_by_repetition(stmt, rng, budget=600)
    assert forged is None
    # the forger is not what fails: each repetition whose gamma matched its
    # guess satisfied every one of its own equations
    assert sound > 0 and unsound == 0


# ------------------------------------------ the verifier's stacked equations

def test_a_toy_audit_and_verify_shuffle_build_no_proof_round(monkeypatch):
    # the verifier reads each field of every repetition by stride from the
    # decoded proof; only deserialize_proof builds ProofRound objects
    config = ElectionConfig(n_voters=3, n_trustees=3, threshold=2, candidate_bound=3, seed=5)
    stored = ElectionTranscript.from_jsonl(run_election(config).transcript.to_jsonl())
    rng = Stream(51, "test_shuffle")
    pk, _ = keygen(TOY, rng)
    stmt, wit = make_instance(rng, pk, 2)
    proof = prove_shuffle(stmt, wit, rng)
    blob = serialize_proof(proof, TOY)

    def refuse(cls, values, n):
        raise AssertionError("a ProofRound was built")

    monkeypatch.setattr(ProofRound, "from_values", classmethod(refuse))
    with pytest.raises(AssertionError, match="ProofRound"):
        deserialize_proof(blob, TOY)
    assert audit_transcript(stored)[0] == AuditVerdict(True, None)
    assert verify_shuffle(stmt, proof) and verify_shuffle(stmt, blob)


@pytest.mark.parametrize("n, entries", [(2, 6), (9, 6), (10, 3 + 3 * 20), (20, 3 + 3 * 20)])
def test_a_toy_proof_reaches_products_equal_as_stacked_entries(n, entries, monkeypatch):
    # t1, t2 and the t_hat are stacked over the 20 repetitions, and t3, t4a
    # and t4b too while 2n + 1 <= 20; past that, each is a row per repetition
    rng = Stream(52, "test_shuffle")
    pk, _ = keygen(TOY, rng)
    stmt, wit = make_instance(rng, pk, n)
    proof = prove_shuffle(stmt, wit, rng)
    seen = []

    def recording(params, equations):
        seen.append(list(equations))
        return products_equal(params, seen[-1])

    monkeypatch.setattr(shuffle, "products_equal", recording)
    assert verify_shuffle(stmt, proof)
    assert [len(e) for e in seen] == [entries]
    assert len(list(unstack(seen[0]))) == security_rounds(TOY.q) * (5 + n)


def test_a_standard_proof_unstacks_to_its_rows_in_order():
    # one repetition: t1, t2, t3, t4a, t4b, then the n t_hat, each a row
    params = setup("standard", 4)
    rng = Stream(53, "test_shuffle")
    pk, _ = keygen(params, rng)
    stmt, wit = make_instance(rng, pk, 3, params)
    proof = prove_shuffle(stmt, wit, rng)
    (pr,) = proof.rounds
    rows = list(unstack(shuffle_equations(stmt, proof)))
    assert [t for _, _, t in rows] == [pr.t1, pr.t2, pr.t3, pr.t4a, pr.t4b, *pr.t_hat]
    assert [len(b) for b, _, _ in rows] == [2, 3, 7, 7, 7, 3, 3, 3]
    assert [b[0] for b, _, _ in rows[2:5]] == [params.g, params.g, pk.h]
    assert products_equal(params, rows)


class CountingHashlib:
    """Stands in for hashlib inside the shuffle and groups modules,
    counting the bytes each hash is constructed over (neither calls
    update)."""

    def __init__(self):
        self.bytes = 0

    def sha256(self, data=b""):
        self.bytes += len(data)
        return hashlib.sha256(data)

    def shake_256(self, data=b""):
        self.bytes += len(data)
        return hashlib.shake_256(data)


def test_hashing_is_linear_in_n(monkeypatch):
    counted = {}
    for n in (200, 400):
        rng = Stream(27, "test_shuffle")
        pk, _ = keygen(TOY, rng)
        stmt, wit = make_instance(rng, pk, n)
        counter = CountingHashlib()
        monkeypatch.setattr(shuffle, "hashlib", counter)
        monkeypatch.setattr(groups, "hashlib", counter)
        proof = prove_shuffle(stmt, wit, rng)
        assert verify_shuffle(stmt, serialize_proof(proof, TOY))
        monkeypatch.undo()
        counted[n] = counter.bytes
    assert counted[200] > 0
    assert counted[400] <= 2.2 * counted[200], counted


# ------------------------------------------------ short challenges (v3)

MID = setup("mid", 4)


@pytest.mark.parametrize("preset", ["mid", "standard"])
def test_challenges_are_128_bit_integers_when_q_is_longer(preset):
    params = setup(preset, 2)
    assert params.q.bit_length() > 128 and security_rounds(params.q) == 1
    rng = random.Random(f"short/{preset}")
    challenges = [hash_scalars(FS_DOMAIN, rng.randbytes(16), params, 1)[0] for _ in range(200)]
    u = shuffle._challenges(b"u", b"digest", [b"commits"], params, 200)
    gammas = gammas_of(b"digest", [b"commitsrest"], params)
    challenges += u[0] + gammas
    assert len(u) == len(gammas) == 1 and len(u[0]) == 200
    assert all(0 <= c < 2**128 for c in challenges)
    assert max(challenges).bit_length() == 128   # the whole 16 bytes, not reduced
    # one repetition hashes exactly the bytes it did when each repetition
    # was hashed alone: the round index 0 before its messages
    stream = hashlib.shake_256(FS_DOMAIN + b"|u|digest" + bytes(4) + b"commits").digest(3200)
    assert u[0] == [int.from_bytes(stream[i : i + 16], "big") for i in range(0, 3200, 16)]
    stream = hashlib.shake_256(FS_DOMAIN + b"|gamma|digest" + bytes(4) + b"commitsrest").digest(16)
    assert gammas == [int.from_bytes(stream, "big")]


def test_challenges_are_scalars_mod_q_in_the_toy_group():
    rounds = security_rounds(TOY.q)
    u = shuffle._challenges(b"u", b"digest", [b"commits"] * rounds, TOY, 25)
    assert len(u) == rounds and all(len(u_r) == 25 for u_r in u)
    challenges = [x for u_r in u for x in u_r]
    gammas = gammas_of(b"digest", [b"commitsrest"] * 200, TOY)
    assert len(gammas) == 200
    challenges += gammas + [hash_scalars(FS_DOMAIN, b"%d" % i, TOY, 1)[0] for i in range(200)]
    assert set(challenges) == set(range(TOY.q))
    # min(|q|, 128) bits per repetition: a 128-bit q needs one, a 64-bit q two
    assert security_rounds((1 << 127) + 1) == 1 and security_rounds((1 << 63) + 1) == 2


def top_bits_below_q(transcript, q, count):
    """The reference cut: read the SHAKE-256 stream byte by byte, take each
    byte's top |q| bits, keep the values below q."""
    shift = 8 - q.bit_length()
    kept, length = [], 64
    while len(kept) < count:
        kept = [b >> shift for b in hashlib.shake_256(FS_DOMAIN + b"|" + transcript).digest(length)
                if b >> shift < q]
        length *= 2
    return kept[:count]


class RecordingShake:
    """Stands in for hashlib inside the groups module, recording the
    lengths each SHAKE-256 stream is read to."""

    def __init__(self):
        self.reads = []

    def shake_256(self, data=b""):
        reads, shake = [], hashlib.shake_256(data)
        self.reads.append(reads)

        class Stream:
            def digest(self, length):
                reads.append(length)
                return shake.digest(length)
        return Stream()


@pytest.mark.parametrize("q", [3, 11, 131, 251])
def test_toy_challenges_are_cut_by_rejection_sampling(q, monkeypatch):
    # q = 131 keeps about half its bytes, so the first read often runs
    # short and the stream is read further; 251 keeps the most of any
    # 8-bit q, and 3 and 11 (the toy group) keep 3/4 and 11/16
    params = GroupParams(p=2 * q + 1, q=q, g=4, candidate_bound=2)
    recorder = RecordingShake()
    monkeypatch.setattr(groups, "hashlib", recorder)
    for count in (0, 1, 2, 5, 20, 100, 1000):
        for i in range(10):
            transcript = b"cut/%d/%d" % (count, i)
            assert hash_scalars(FS_DOMAIN, transcript, params, count) == \
                top_bits_below_q(transcript, q, count), (count, i)
    assert all(reads for reads in recorder.reads)
    if q == 131:
        assert any(len(reads) > 1 for reads in recorder.reads)


OLD_MAGICS = (b"IVXVSHF2", b"IVXVSHF3")


def test_v2_magic_proof_is_rejected_without_exception():
    # and a v3 one: the layout is the same, only the magic tells them apart
    stmt, blob = toy_blob(24)
    assert PROOF_MAGIC == b"IVXVSHF4"
    for magic in OLD_MAGICS:
        old = magic + blob[len(PROOF_MAGIC) :]
        assert not verify_shuffle(stmt, old)
        with pytest.raises(ValueError):
            deserialize_proof(old, TOY)


def test_replay_of_a_v2_magic_proof_is_a_shuffle_proof_verdict():
    from ivxvsim.ceremony import (ElectionConfig, ElectionTranscript, audit_transcript,
                                  proof_from_text, proof_to_text, run_election)

    config = ElectionConfig(n_voters=4, n_trustees=3, threshold=2, candidate_bound=3, seed=3)
    jsonl = run_election(config).transcript.to_jsonl()
    for magic in OLD_MAGICS:
        lines = jsonl.splitlines()
        edited = 0
        for index, line in enumerate(lines):
            event = json.loads(line)
            entry = event.get("payload", {}).get("entry", {})
            if isinstance(entry, dict) and entry.get("kind") == "shuffle":
                blob = proof_from_text(entry["proof"])
                assert blob.startswith(PROOF_MAGIC)
                entry["proof"] = proof_to_text(magic + blob[len(PROOF_MAGIC) :])
                lines[index] = json.dumps(event)
                edited += 1
        assert edited == 1
        recomputed, recorded = audit_transcript(ElectionTranscript.from_jsonl("\n".join(lines) + "\n"))
        assert recorded.valid
        assert (recomputed.valid, recomputed.reason) == (False, "shuffle-proof"), magic


# ------------------------------------- a prover that knows its logs

def old_chain_and_t_hat(params, base, u_tld, rho_hat, w_hat, w_prm):
    """The recurrence the prover used to compute with a variable-base pow
    of each chain element."""
    p, g = params.p, params.g
    chain, t_hat, prev = [], [], base
    for u_i, r_i, w_i, w_prm_i in zip(u_tld, rho_hat, w_hat, w_prm):
        t_hat.append(pow(g, w_i, p) * pow(prev, w_prm_i, p) % p)
        prev = pow(g, r_i, p) * pow(prev, u_i, p) % p
        chain.append(prev)
    return chain, t_hat


@pytest.mark.parametrize("params", [TOY, MID, setup("standard", 4)],
                         ids=["toy", "mid", "standard"])
def test_chain_and_t_hat_from_known_logs_equal_the_pow_recurrence(params):
    # toy takes two fixed-base powers per element, and mid and standard,
    # large groups, one multi_exp per element
    rng = random.Random(f"known-logs/{params.p}")
    base = shuffle._generators(params.p, params.q, params.g, 1)[0]
    challenge = params.q if params is TOY else 2**128
    for n in range(1, 6):
        u_tld = [rng.randrange(challenge) for _ in range(n)]
        rho_hat, w_hat, w_prm = ([rng.randrange(params.q) for _ in range(n)] for _ in range(3))
        chain, t_hat, rho_dot = shuffle._chain_and_t_hat(params, base, u_tld, rho_hat, w_hat, w_prm)
        assert (chain, t_hat) == old_chain_and_t_hat(params, base, u_tld, rho_hat, w_hat, w_prm)
        # rho_dot is the log over g of the chain's last element divided by
        # base^prod(u~), which is what the t2 equation checks
        prod_u = 1
        for u_i in u_tld:
            prod_u = prod_u * u_i % params.q
        assert chain[-1] == pow(params.g, rho_dot, params.p) * pow(base, prod_u, params.p) % params.p


def test_standard_group_prover_makes_no_variable_base_pow(monkeypatch):
    # n = 3: the chain and t_hat took 4 full-size pows of chain elements;
    # now every full-size power is read from a comb table, and a chain
    # element's 128-bit power of the one before it shares a multi_exp chain
    params = setup("standard", 4)
    rng = Stream(30, "test_shuffle")
    pk, _ = keygen(params, rng)
    stmt, wit = make_instance(rng, pk, 3, params)
    shuffle._generators(params.p, params.q, params.g, 3)   # the cached inverse is not a power
    pows = []

    def counting_pow(*args):
        if len(args) == 3:
            pows.append(args)
        return pow(*args)

    monkeypatch.setattr(shuffle, "pow", counting_pow, raising=False)
    proof = prove_shuffle(stmt, wit, rng)
    assert pows == []
    monkeypatch.undo()
    assert verify_shuffle(stmt, proof)


# ------------------------------------------------- the mid-size group
# 387 bits, the smallest large group: it runs the standard group's code,
# so the equations, not the size of the group, are what stands between a
# changed proof and acceptance.

@pytest.fixture(scope="module")
def mid_proof():
    rng = Stream(31, "test_shuffle")
    pk, _ = keygen(MID, rng)
    stmt, wit = make_instance(rng, pk, 3, MID)
    proof = prove_shuffle(stmt, wit, rng)
    assert len(proof.rounds) == 1
    assert verify_shuffle(stmt, proof)
    assert verify_shuffle(stmt, serialize_proof(proof, MID))
    return stmt, proof


def changed_at(value, index, bump):
    if isinstance(value, tuple):
        return (*value[:index], bump(value[index]), *value[index + 1 :])
    return bump(value)


@pytest.mark.parametrize("field", ELEMENT_FIELDS + SCALAR_FIELDS)
def test_mid_group_rejects_each_changed_field(mid_proof, field):
    # every entry of a tuple field, +1 (mod p or mod q), and elements also
    # times g, which keeps them in the group
    stmt, proof = mid_proof
    p, q, g = MID.p, MID.q, MID.g
    value = getattr(proof.rounds[0], field)
    bumps = [lambda x: (x + 1) % q] if field in SCALAR_FIELDS \
        else [lambda x: (x + 1) % p, lambda x: x * g % p]
    for index in range(len(value) if isinstance(value, tuple) else 1):
        for bump in bumps:
            changed = with_round(proof, **{field: changed_at(value, index, bump)})
            assert not verify_shuffle(stmt, changed), (field, index)


def test_mid_group_rejects_non_residues(mid_proof):
    stmt, proof = mid_proof
    p = MID.p
    assert p % 4 == 3   # -1 is a non-residue, so p - x is one for every residue x
    pr = proof.rounds[0]
    for field in ELEMENT_FIELDS:
        value = getattr(pr, field)
        changed = changed_at(value, 0, lambda x: p - x)
        assert not verify_shuffle(stmt, with_round(proof, **{field: changed})), field
    first = stmt.inputs[0]
    bad = ShuffleStatement(pk=stmt.pk, inputs=(Ciphertext(p - first.c1, first.c2), *stmt.inputs[1:]),
                           outputs=stmt.outputs)
    assert not verify_shuffle(bad, proof)


def test_mid_group_rejects_changes_that_cancel_in_an_unweighted_product(mid_proof):
    stmt, proof = mid_proof
    q = MID.q
    pr = proof.rounds[0]
    assert not verify_shuffle(stmt, with_round(proof, s_bar=(pr.s_bar + 1) % q,
                                               s_dot=(pr.s_dot - 1) % q))
    s_hat = ((pr.s_hat[0] + 1) % q, (pr.s_hat[1] - 1) % q, *pr.s_hat[2:])
    assert not verify_shuffle(stmt, with_round(proof, s_hat=s_hat))


def test_mid_group_soundness_against_tampered_statements():
    rng = Stream(32, "test_shuffle")
    for n in (1, 2, 5):
        pk, sk = keygen(MID, rng)
        stmt, wit = make_instance(rng, pk, n, MID)
        proof = prove_shuffle(stmt, wit, rng)
        assert verify_shuffle(stmt, proof)
        i = rng.below(n)
        fresh = encrypt(pk, (decrypt(sk, stmt.outputs[i]) + 1) % MID.candidate_bound, 7)
        outs = stmt.outputs[:i] + (fresh,) + stmt.outputs[i + 1 :]
        assert not verify_shuffle(ShuffleStatement(pk, stmt.inputs, outs), proof)
        ins = stmt.inputs[:i] + (fresh,) + stmt.inputs[i + 1 :]
        assert not verify_shuffle(ShuffleStatement(pk, ins, stmt.outputs), proof)
        pk2, _ = keygen(MID, rng)
        assert not verify_shuffle(ShuffleStatement(pk2, stmt.inputs, stmt.outputs), proof)


@pytest.mark.parametrize("component", [0, 1], ids=["c1", "c2"])
def test_mid_group_rejects_a_shuffle_with_one_component_off(monkeypatch, component):
    # A prover without the witness re-check proves a shuffle in which one
    # output has c1 (or c2) times g.  The challenges are those of the
    # changed statement, so t1, t2, t3, the t_hat and the other
    # component's t4 equation hold: only t4a (or t4b) rejects it.
    rng = Stream(33, "test_shuffle")
    pk, _ = keygen(MID, rng)
    stmt, wit = make_instance(rng, pk, 3, MID)
    outs = list(stmt.outputs)
    ct = list(outs[1])
    ct[component] = ct[component] * MID.g % MID.p
    outs[1] = Ciphertext(*ct)
    claimed = {(stmt.inputs[j], r): out for j, r, out in zip(wit.perm, wit.rands, outs)}
    monkeypatch.setattr(shuffle, "rerandomize", lambda pk, ct, r: claimed[ct, r])
    bad = ShuffleStatement(pk, stmt.inputs, tuple(outs))
    proof = prove_shuffle(bad, wit, rng)
    monkeypatch.undo()
    assert not verify_shuffle(bad, proof)


# --------------------------------- integer responses over short randomizers
# In a large group (q longer than 385 bits), each w'_i is a 384-bit integer
# and each s'_i = w'_i + gamma * u~_i is posted unreduced, below 2^385.

def _assert_s_prm_are_integers_below_2_385(proof):
    for s in proof.rounds[0].s_prm:
        assert 2**256 < s < 2**385


def test_standard_group_s_prm_are_integers_below_2_385(standard_proof):
    _assert_s_prm_are_integers_below_2_385(standard_proof[1])


def test_mid_group_s_prm_are_integers_below_2_385(mid_proof):
    _assert_s_prm_are_integers_below_2_385(mid_proof[1])


def test_s_prm_are_scalars_mod_q_in_the_toy_group():
    rng = Stream(34, "test_shuffle")
    pk, _ = keygen(TOY, rng)
    stmt, wit = make_instance(rng, pk, 3)
    toy = prove_shuffle(stmt, wit, rng)
    assert all(0 <= s < TOY.q for pr in toy.rounds for s in pr.s_prm)


def _assert_rejects_s_prm_out_of_range(stmt, proof, change):
    q = stmt.pk.params.q
    s_prm = proof.rounds[0].s_prm
    bad = {"2^385": 2**385, "q-1": q - 1, "plus-q": s_prm[0] + q}[change]
    changed = with_round(proof, s_prm=(bad, *s_prm[1:]))
    assert not verify_shuffle(stmt, changed)
    assert not verify_shuffle(stmt, serialize_proof(changed, stmt.pk.params))


@pytest.mark.parametrize("change", ["2^385", "q-1", "plus-q"])
def test_standard_group_rejects_s_prm_out_of_range(standard_proof, change):
    _assert_rejects_s_prm_out_of_range(*standard_proof, change)


@pytest.mark.parametrize("change", ["2^385", "q-1", "plus-q"])
def test_mid_group_rejects_s_prm_out_of_range(mid_proof, change):
    _assert_rejects_s_prm_out_of_range(*mid_proof, change)


def _standard_instance(seed, n=3):
    params = setup("standard", 4)
    rng = Stream(seed, "test_shuffle")
    pk, _ = keygen(params, rng)
    stmt, wit = make_instance(rng, pk, n, params)
    return stmt, wit, rng


def _recording_multi_exp(monkeypatch):
    """Every (bases, exponents) that groups.multi_exp is called with, in order."""
    calls = []
    original_multi_exp = groups.multi_exp

    def recording(params, bases, exponents):
        bases, exponents = list(bases), list(exponents)
        calls.append((bases, exponents))
        return original_multi_exp(params, bases, exponents)

    monkeypatch.setattr(groups, "multi_exp", recording)
    monkeypatch.setattr(shuffle, "multi_exp", recording)
    return calls


def test_standard_group_prover_multi_exponents_are_below_2_384(monkeypatch):
    # n = 3: only g, h and the commitment base, which have comb tables,
    # carry exponents of 2^384 or more into multi_exp; t3, t4a and t4b
    # raise the generators and the outputs to the w'_i, and the chain its
    # previous element to a 128-bit u~_i (the parent of v4 raised them to
    # 2044-2047-bit exponents)
    stmt, wit, rng = _standard_instance(35)
    params = stmt.pk.params
    p, q = params.p, params.q
    base = shuffle._generators(p, q, params.g, 3)[0]
    calls = _recording_multi_exp(monkeypatch)
    proof = prove_shuffle(stmt, wit, rng)
    # the witness batch (two products), the chain and t_hat (one product
    # per element), then t3, t4a and t4b
    assert len(calls) == 2 + 2 * 3 + 3
    long_bases = {b for bases, exponents in calls for b, e in zip(bases, exponents)
                  if (e % q).bit_length() > 384}
    assert long_bases == {params.g, stmt.pk.h, base}
    assert all(groups._comb(p, q, b) is not None for b in long_bases)
    monkeypatch.undo()
    assert verify_shuffle(stmt, proof)


def test_standard_group_batch_has_at_most_three_long_exponents(monkeypatch):
    # n = 3: of the batch's left side, only g, h and at most the
    # commitment base carry exponents over 700 bits (the parent had 14)
    stmt, wit, rng = _standard_instance(36)
    proof = prove_shuffle(stmt, wit, rng)
    q = stmt.pk.params.q
    calls = _recording_multi_exp(monkeypatch)
    assert verify_shuffle(stmt, proof)
    assert len(calls) == 2
    left_bases, left_exponents = calls[0]
    long = [b for b, e in zip(left_bases, left_exponents) if (e % q).bit_length() > 700]
    assert stmt.pk.params.g in long and stmt.pk.h in long
    assert len(long) <= 3
    base = shuffle._generators(stmt.pk.params.p, q, stmt.pk.params.g, 3)[0]
    assert set(long) <= {stmt.pk.params.g, stmt.pk.h, base}


@pytest.mark.parametrize("preset", ["toy", "mid", "standard"])
def test_witness_recheck_names_the_first_output_that_does_not_match(preset, monkeypatch):
    params = TOY if preset == "toy" else setup(preset, 4)
    rng = Stream(0, f"witness/{preset}")
    pk, _ = keygen(params, rng)
    stmt, wit = make_instance(rng, pk, 4, params)
    outs = stmt.outputs
    g, p = params.g, params.p
    times = lambda ct, k, f: Ciphertext(*(x * f % p if j == k else x for j, x in enumerate(ct)))
    cases = [(1, outs[:1] + (times(outs[1], 0, g),) + outs[2:]),
             (3, outs[:3] + (times(outs[3], 1, g),)),
             (0, (outs[2], outs[1], outs[0], outs[3]))]
    # a factor p - 1 = -1, of order 2, leaves the order-q subgroup, which a
    # weighted check alone would miss for about half of all weights
    cases += [(i, outs[:i] + (times(outs[i], k, p - 1),) + outs[i + 1:])
              for i in range(4) for k in (0, 1)]
    for i, changed in cases:
        bad = ShuffleStatement(pk=pk, inputs=stmt.inputs, outputs=changed)
        with pytest.raises(BadWitness, match=rf"^output {i} "):
            prove_shuffle(bad, wit, rng)
    # so does an input's: the output drawn from it no longer matches
    for j in range(4):
        ins = stmt.inputs[:j] + (times(stmt.inputs[j], 0, p - 1),) + stmt.inputs[j + 1:]
        bad = ShuffleStatement(pk=pk, inputs=ins, outputs=outs)
        with pytest.raises(BadWitness, match=rf"^output {wit.perm.index(j)} "):
            prove_shuffle(bad, wit, rng)
    # an honest witness passes the one weighted check, without the
    # per-output re-check
    monkeypatch.setattr(shuffle, "rerandomize", None)
    assert verify_shuffle(stmt, prove_shuffle(stmt, wit, rng))


def test_toy_prover_draws_its_scalars_in_the_per_round_order():
    # the toy prover takes every round's 4n + 4 scalars in one draw; cut
    # here round by round, rho, rho_hat, w_bar, w_dot, w_tld, w_r, w_hat,
    # w', each proof value is what those scalars give, with u and gamma
    # derived once for all rounds, and the stream ends where that draw
    # leaves it
    rng = Stream(35, "test_shuffle")
    pk, _ = keygen(TOY, rng)
    n = 5
    stmt, wit = make_instance(rng, pk, n)
    prover, loop = Stream(0, "draw-order"), Stream(0, "draw-order")
    proof = prove_shuffle(stmt, wit, prover)
    p, q, g = TOY.p, TOY.q, TOY.g
    pool = iter(loop.scalars(q, security_rounds(q) * (4 * n + 4)))
    draw = lambda count: [next(pool) for _ in range(count)]
    stmt_digest = hashlib.sha256(stmt.to_bytes()).digest()
    _, gens, _ = shuffle._generators(p, q, g, n)
    width = byte_width(p)
    perm_bytes = [encode(pr.perm_commits, width) for pr in proof.rounds]
    us = shuffle._challenges(b"u", stmt_digest, perm_bytes, TOY, n)
    gammas = gammas_of(stmt_digest, [pb + encode(r, width)
                                     for pb, r in zip(perm_bytes, second_messages(proof))], TOY)
    for pr, u, gamma in zip(proof.rounds, us, gammas):
        rho, rho_hat = draw(n), draw(n)
        w_bar, w_dot, w_tld, w_r = draw(4)
        w_hat, w_prm = draw(n), draw(n)
        assert pr.perm_commits == tuple(
            pow(g, rho[j], p) * gens[wit.perm.index(j)] % p for j in range(n))
        assert (pr.t1, pr.t2) == (pow(g, w_bar, p), pow(g, w_dot, p))
        u_tld = [u[j] for j in wit.perm]
        assert pr.s_bar == (w_bar + gamma * sum(rho)) % q
        rho_tld = sum(r * u_j for r, u_j in zip(rho, u))
        r_tld = sum(r * u_j for r, u_j in zip(wit.rands, u_tld))
        assert pr.s_tld == (w_tld + gamma * rho_tld) % q
        assert pr.s_r == (w_r + gamma * r_tld) % q
        assert pr.s_hat == tuple((w + gamma * r) % q for w, r in zip(w_hat, rho_hat))
        assert pr.s_prm == tuple((w + gamma * u_j) % q for w, u_j in zip(w_prm, u_tld))
    assert len(proof.rounds) == security_rounds(q)
    assert prover.bits(64) == loop.bits(64)
