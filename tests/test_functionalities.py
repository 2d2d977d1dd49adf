"""Ideal-world building blocks: board, registry, key and decrypt services,
voting and audit devices."""

import json
import random

import pytest

from ivxvsim import elgamal, functionalities, groups
from ivxvsim.adversary import ManipulationPolicy
from ivxvsim.ceremony import ea_accept_ballot
from ivxvsim.elgamal import Ciphertext, SecretKey, encrypt, make_keypair
from ivxvsim.functionalities import (
    REJECTED_PLAINTEXT,
    AuditDevice,
    BulletinBoard,
    CertRegistry,
    DecryptionService,
    KeyGenService,
    MissingShuffle,
    NotReady,
    ThresholdNotMet,
    UnknownSsid,
    VerificationToken,
    VotingDevice,
    decrypt_all,
    last_ballots,
    latest_entry,
    plaintexts_match,
)
from ivxvsim.groups import setup
from ivxvsim.seeding import Stream
from ivxvsim.shamir import reconstruct

SID = "election-test"
TOY = setup("toy", 4)


def ready_keygen(t=2, k=3, seed=0):
    kg = KeyGenService(SID, TOY, t, k, Stream(seed, "keygen"))
    for j in range(1, k + 1):
        kg.ready(j)
    return kg


def post_shuffle(board, cts):
    pairs = [[c.c1, c.c2] for c in cts]
    board.priv_post(SID, {"kind": "shuffle", "inputs": pairs, "outputs": pairs,
                          "proof": ""})


# ---------------------------------------------------------------- board

def test_board_append_and_snapshot():
    board = BulletinBoard(SID)
    board.pub_post(SID, {"kind": "notice", "n": 1})
    board.priv_post(SID, {"kind": "ballot", "n": 2})
    pub, priv = board.snapshot()
    assert pub == ({"kind": "notice", "n": 1},)
    assert priv == ({"kind": "ballot", "n": 2},)


def test_board_rejects_unknown_sid():
    board = BulletinBoard(SID)
    with pytest.raises(ValueError):
        board.pub_post("other", {"a": 1})
    with pytest.raises(ValueError):
        board.priv_post("other", {"a": 1})


def test_board_is_append_only():
    # Earlier entries never change as the log grows.
    board = BulletinBoard(SID)
    board.pub_post(SID, {"v": 0})
    snap1 = json.dumps(board.snapshot()[0])
    for i in range(1, 5):
        board.pub_post(SID, {"v": i})
        pub, _ = board.snapshot()
        assert json.dumps(pub[:1]) == snap1
    assert len(board.snapshot()[0]) == 5


def test_board_observer_sees_every_post():
    board = BulletinBoard(SID)
    seen = []
    board.observer = lambda name, entry: seen.append((name, entry))
    board.pub_post(SID, {"a": 1})
    board.priv_post(SID, {"a": 2})
    board.pub_post(SID, {"a": 3})
    assert seen == [("pub", {"a": 1}), ("priv", {"a": 2}), ("pub", {"a": 3})]


def test_latest_entry_picks_the_last_match():
    entries = [{"kind": "ballot", "ssid": [1, 1], "c": "a"},
               "not an entry",
               {"kind": "ballot", "ssid": [2, 1], "c": "b"},
               {"kind": "shuffle"},
               ["ballot"]]
    assert latest_entry(entries, "ballot")["c"] == "b"
    assert latest_entry(entries, "ballot", ssid=(1, 1))["c"] == "a"
    assert latest_entry(entries, "ballot", ssid=(3, 1)) is None
    assert latest_entry(entries, "plaintexts") is None
    assert latest_entry((), "ballot") is None


def test_last_ballots_takes_each_voters_last_in_id_order():
    entries = [{"kind": "ballot", "ssid": [3, 1], "c": [1, 1]},
               {"kind": "ballot", "ssid": [1, 1], "c": [2, 2]},
               {"kind": "ballot", "ssid": [3, 2], "c": [3, 3]},   # re-vote overwrites
               {"kind": "ballot", "ssid": [1, 2], "c": [4, 4]},
               {"kind": "ballot", "ssid": [3, 3], "c": [5, 5]}]
    assert last_ballots(entries, 4) == [[4, 4], None, [5, 5], None]
    assert last_ballots(entries, 1) == [[4, 4]]
    assert last_ballots([], 2) == [None, None]


# ------------------------------------------------------------- registry

def test_registry_sign_then_verify():
    reg = CertRegistry()
    rng = Stream(0, "registry")
    sigma = reg.sign(SID, (4, 1), b"payload", rng, issuer=4)
    assert reg.verify(SID, (4, 1), b"payload", sigma) == 1


def test_registry_rejects_tampering():
    reg = CertRegistry()
    rng = Stream(0, "registry")
    sigma = reg.sign(SID, (4, 1), b"payload", rng, issuer=4)
    assert reg.verify(SID, (4, 1), b"payloaX", sigma) == 0
    assert reg.verify(SID, (4, 2), b"payload", sigma) == 0
    assert reg.verify(SID, (5, 1), b"payload", sigma) == 0
    assert reg.verify(SID, (4, 1), b"payload", "0" * 32) == 0


def test_registry_issuer_must_match_session():
    reg = CertRegistry()
    with pytest.raises(PermissionError):
        reg.sign(SID, (4, 1), b"payload", Stream(0, "registry"), issuer=5)


def test_registry_forgery_fuzz():
    # Nothing verifies unless that exact (ssid, message) pair was signed.
    reg = CertRegistry()
    rng, stream = random.Random(1), Stream(1, "registry")
    signed = {}
    for i in range(30):
        ssid = (i, 1)
        msg = b"m%d" % i
        signed[(ssid, msg)] = reg.sign(SID, ssid, msg, stream, issuer=i)
    hits = 0
    for _ in range(300):
        ssid = (rng.randrange(40), rng.randrange(3))
        msg = b"m%d" % rng.randrange(40)
        sigma = rng.choice(list(signed.values()))
        expect = 1 if signed.get((ssid, msg)) == sigma else 0
        hits += reg.verify(SID, ssid, msg, sigma) == expect
    assert hits == 300


def test_registry_dump_roundtrip():
    reg = CertRegistry()
    rng = Stream(2, "registry")
    sigma = reg.sign(SID, (7, 1), b"ballot-bytes", rng, issuer=7)
    rows = reg.dump()
    reg2 = CertRegistry.from_dump(SID, rows)
    assert reg2.verify(SID, (7, 1), b"ballot-bytes", sigma) == 1
    assert reg2.verify(SID, (7, 1), b"other", sigma) == 0


# --------------------------------------------------------------- keygen

def test_keygen_requires_all_trustees():
    kg = KeyGenService(SID, TOY, 2, 3, Stream(0, "keygen"))
    kg.ready(1)
    kg.ready(2)
    with pytest.raises(NotReady):
        kg.pubkey()
    kg.ready(3)
    pk = kg.pubkey()
    assert TOY.is_element(pk.h)


def test_keygen_trustee_id_validation():
    kg = KeyGenService(SID, TOY, 2, 3, Stream(0, "keygen"))
    with pytest.raises(ValueError):
        kg.ready(0)
    with pytest.raises(ValueError):
        kg.ready(4)


def test_keygen_is_stable_after_first_call():
    kg = ready_keygen()
    assert kg.pubkey() == kg.pubkey()
    assert kg.share_for(1) == kg.share_for(1)


def test_keygen_shares_reconstruct_the_trapdoor():
    # Any t shares recover a secret consistent with the public key.
    import itertools

    kg = ready_keygen(t=2, k=3, seed=9)
    pk = kg.pubkey()
    shares = [kg.share_for(j) for j in (1, 2, 3)]
    for subset in itertools.combinations(shares, 2):
        sk = reconstruct(list(subset), 2, TOY.q)
        assert pow(TOY.g, sk, TOY.p) == pk.h


# ------------------------------------------------------------- decryption

def test_decryption_happy_path():
    board = BulletinBoard(SID)
    kg = ready_keygen(seed=3)
    pk = kg.pubkey()
    rng = random.Random(4)
    cts = [encrypt(pk, m, rng.randrange(TOY.q)) for m in (0, 1, 2, 1)]
    post_shuffle(board, cts)
    dec = DecryptionService(board, kg)
    dec.submit_key(1)
    dec.submit_key(3)
    assert dec.secret_key is None
    assert dec.decrypt_and_post() == [0, 1, 2, 1]
    assert pow(TOY.g, dec.secret_key.sk, TOY.p) == pk.h  # the key it decrypted with
    pub, _ = board.snapshot()
    posted = [e for e in pub if e.get("kind") == "plaintexts"]
    assert posted[-1]["values"] == [0, 1, 2, 1]


def test_decryption_threshold_not_met():
    board = BulletinBoard(SID)
    kg = ready_keygen(seed=5)
    post_shuffle(board, [encrypt(kg.pubkey(), 1, 2)])
    dec = DecryptionService(board, kg)
    dec.submit_key(1)
    with pytest.raises(ThresholdNotMet):
        dec.decrypt_and_post()


def test_decryption_missing_shuffle():
    board = BulletinBoard(SID)
    kg = ready_keygen(seed=6)
    kg.pubkey()
    dec = DecryptionService(board, kg)
    dec.submit_key(1)
    dec.submit_key(2)
    with pytest.raises(MissingShuffle):
        dec.decrypt_and_post()


def test_decryption_marks_non_candidate_outputs():
    board = BulletinBoard(SID)
    kg = ready_keygen(seed=8)
    pk = kg.pubkey()
    r = 3
    bogus = Ciphertext(
        pow(TOY.g, r, TOY.p),
        pow(TOY.g, TOY.candidate_bound, TOY.p) * pow(pk.h, r, TOY.p) % TOY.p,
    )
    post_shuffle(board, [encrypt(pk, 2, 5), bogus])
    dec = DecryptionService(board, kg)
    dec.submit_key(1)
    dec.submit_key(2)
    dec.decrypt_and_post()
    pub, _ = board.snapshot()
    values = [e for e in pub if e.get("kind") == "plaintexts"][-1]["values"]
    assert values == [2, REJECTED_PLAINTEXT]



@pytest.mark.parametrize("preset", ["toy", "mid", "standard"])
def test_posted_plaintexts_are_checked_without_decrypting(preset):
    params = setup(preset, 4)
    p, g = params.p, params.g
    pk, sk = make_keypair(params, 7)
    rng = random.Random(f"plaintexts/{preset}")
    cts = [encrypt(pk, m, rng.randrange(params.q)) for m in (0, 3, 1)]
    r = rng.randrange(params.q)   # plaintext 4, outside the candidate range
    cts.append(Ciphertext(pow(g, r, p), pow(g, 4, p) * pow(pk.h, r, p) % p))
    pairs = [[c.c1, c.c2] for c in cts]
    values = [0, 3, 1, REJECTED_PLAINTEXT]
    assert decrypt_all(sk, pairs) == values
    assert plaintexts_match(sk, pk.h, pairs, values)
    for changed in ([0, 2, 1, -1],     # a wrong value
                    [-1, 3, 1, -1],    # a spurious REJECTED_PLAINTEXT
                    [0, 3, 4, -1],     # a value at the bound
                    [0, 3, 1, 4],      # the real plaintext, outside the range
                    [0, 3, 1, -2],
                    [0, 3, 1],         # a wrong length
                    [0, 3, 1, -1, 0]):
        assert not plaintexts_match(sk, pk.h, pairs, changed), changed
    # a key other than h's, with the values it decrypts to
    other = SecretKey(params, sk.sk + 1)
    opened = decrypt_all(other, pairs)
    assert plaintexts_match(other, pow(g, other.sk, p), pairs, opened)
    assert not plaintexts_match(other, pk.h, pairs, opened)
    assert not plaintexts_match(other, pk.h, [], [])


@pytest.mark.parametrize("preset", ["mid", "standard"])
@pytest.mark.parametrize("n", [1, 3, 8])
def test_plaintext_check_is_one_full_power_and_binds_every_value(preset, n, monkeypatch):
    params = setup(preset, 4)
    q = params.q
    rng = random.Random(f"plaintext-powers/{preset}/{n}")
    pk, sk = make_keypair(params, rng.randrange(q // 2, q))
    values = [i % 4 for i in range(n)]
    rng.shuffle(values)
    pairs = [list(encrypt(pk, m, rng.randrange(q))) for m in values]
    inner, joint = [], []        # (bases, exponents, product) of each multi_exp call
    original_multi_exp = groups.multi_exp

    def recording(calls):
        def multi_exp(params, bases, exponents):
            bases, exponents = list(bases), list(exponents)
            product = original_multi_exp(params, bases, exponents)
            calls.append((bases, exponents, product))
            return product
        return multi_exp

    def no_power(*args):
        raise AssertionError("the plaintext check makes no power of its own")

    monkeypatch.setattr(groups, "power", no_power)
    monkeypatch.setattr(elgamal, "power", no_power)
    monkeypatch.setattr(functionalities, "multi_exp", recording(inner))
    monkeypatch.setattr(groups, "multi_exp", recording(joint))
    assert plaintexts_match(sk, pk.h, pairs, values)
    # X = g^w_0 * prod c1_i^w_i, one product over 128-bit weights
    assert len(inner) == 1
    bases, exponents, x = inner[0]
    assert bases == [params.g, *(c1 for c1, _ in pairs)]
    assert all(0 <= e < 2**128 for e in exponents)
    # the product that checks the equation raises X, which has no comb
    # table, to a weight times sk; every other exponent is a weight times a
    # weight or times a sum of weighted values, below 2^260
    long = [b for bases, exponents, _ in joint for b, e in zip(bases, exponents)
            if not 0 <= e < 2**260]
    assert long == [x] and groups._comb(params.p, q, x) is None
    monkeypatch.undo()
    changed = []
    for i in range(n):
        for step in (1, -1):                        # -1 from 0 is REJECTED_PLAINTEXT
            changed.append(values[:i] + [values[i] + step] + values[i + 1 :])
    for i in range(n - 1):
        if values[i] != values[i + 1]:
            changed.append(values[:i] + [values[i + 1], values[i]] + values[i + 2 :])
    assert len(changed) > 2 * n or n == 1
    for wrong in changed:
        assert not plaintexts_match(sk, pk.h, pairs, wrong), wrong

# ----------------------------------------------------- voting/audit devices

def make_voting_world(seed=0, policy=None):
    board = BulletinBoard(SID)
    reg = CertRegistry()
    kg = ready_keygen(seed=seed)
    pk = kg.pubkey()
    dev = VotingDevice(SID, 1, reg, Stream(seed, "vsd"), policy=policy)
    asd = AuditDevice(board, pk)
    return board, reg, pk, dev, asd


def test_honest_cast_passes_verification():
    board, reg, pk, dev, asd = make_voting_world(seed=1)
    ballot, token = dev.cast(pk, 2)
    assert reg.verify(SID, ballot.ssid, b"%d|%d" % (ballot.c.c1, ballot.c.c2),
                      ballot.sigma) == 1
    assert ea_accept_ballot(SID, reg, board, ballot)
    matches, observed = asd.check(token)
    assert (matches, observed) == (1, 2)


def test_manipulated_cast_is_detected_by_check():
    policy = ManipulationPolicy.always()
    board, reg, pk, dev, asd = make_voting_world(seed=2, policy=policy)
    ballot, token = dev.cast(pk, 2, history="")
    assert token.intent == 2  # the device still claims the real intent
    ea_accept_ballot(SID, reg, board, ballot)
    matches, observed = asd.check(token)
    assert matches == 0
    assert observed == 3  # intent shifted by the default offset


def test_detection_is_complete_for_manipulated_casts():
    # A manipulated final ballot plus a check always yields a mismatch.
    policy = ManipulationPolicy.always()
    rng = random.Random(3)
    for trial in range(200):
        board, reg, pk, dev, asd = make_voting_world(seed=trial, policy=policy)
        intent = rng.randrange(TOY.candidate_bound)
        ballot, token = dev.cast(pk, intent)
        ea_accept_ballot(SID, reg, board, ballot)
        matches, observed = asd.check(token)
        assert matches == 0
        assert observed == (intent + 1) % TOY.candidate_bound


def test_check_uses_latest_ballot_for_the_session():
    board, reg, pk, dev, asd = make_voting_world(seed=4)
    b1, t1 = dev.cast(pk, 0)
    b2, t2 = dev.cast(pk, 3)
    assert b1.ssid != b2.ssid  # fresh sub-session per cast
    ea_accept_ballot(SID, reg, board, b1)
    ea_accept_ballot(SID, reg, board, b2)
    assert asd.check(t2) == (1, 3)
    assert asd.check(t1) == (1, 0)


def test_check_with_wrong_trapdoor_fails_closed():
    board, reg, pk, dev, asd = make_voting_world(seed=5)
    ballot, token = dev.cast(pk, 1)
    ea_accept_ballot(SID, reg, board, ballot)
    bad = VerificationToken(token.ssid, (token.r + 1) % TOY.q, token.intent)
    assert asd.check(bad) == (0, None)


def test_check_unknown_session_raises():
    board, _, pk, dev, asd = make_voting_world(seed=6)
    _, token = dev.cast(pk, 1)  # never posted to the board
    with pytest.raises(UnknownSsid):
        asd.check(token)


def test_cast_log_records_manipulation_flags():
    policy = ManipulationPolicy.from_table({"": False, "V": True})
    _, _, pk, dev, _ = make_voting_world(seed=7, policy=policy)
    dev.cast(pk, 2, history="")
    dev.cast(pk, 2, history="V")
    assert dev.cast_log[1] == (2, False)
    assert dev.cast_log[2] == (3, True)
