"""End-to-end election runs, the audit chain, and transcript replay."""

import base64
import json
import random
from collections import Counter

import pytest

from ivxvsim import ceremony, elgamal, functionalities, groups, shuffle
from ivxvsim.adversary import ManipulationPolicy
from ivxvsim.behavior import MAX_PATTERN_LEN
from ivxvsim.ceremony import (
    TAMPER_MODES,
    AuditVerdict,
    CeremonyError,
    ElectionConfig,
    ElectionTranscript,
    ReplayError,
    audit_transcript,
    ea_accept_ballot,
    proof_from_text,
    proof_to_text,
    run_election,
    tally_alg,
)
from ivxvsim.elgamal import SecretKey
from ivxvsim.functionalities import (
    REJECTED_PLAINTEXT,
    Ballot,
    BulletinBoard,
    CertRegistry,
    KeyGenService,
    VotingDevice,
    decrypt_all,
    last_ballots,
)
from ivxvsim.groups import UnknownPreset, setup
from ivxvsim.seeding import Stream
from proof_layout import repetitions, with_fields

SID = "election-1"


def honest_config(**kw):
    base = dict(n_voters=6, n_trustees=3, threshold=2, candidate_bound=3, seed=5)
    base.update(kw)
    return ElectionConfig(**base)


def corrupted_config(**kw):
    base = dict(
        n_voters=6, n_trustees=3, threshold=2, candidate_bound=3, seed=5,
        corrupted=(1,), policy=ManipulationPolicy.always(),
    )
    base.update(kw)
    return ElectionConfig(**base)


# ------------------------------------------------------------- tally_alg

def test_tally_alg_counts_plaintexts():
    assert tally_alg([0, 1, 1, 2]) == {0: 1, 1: 2, 2: 1}
    assert tally_alg([]) == {}


def test_tally_alg_is_order_invariant():
    rng = random.Random(0)
    votes = [rng.randrange(5) for _ in range(40)]
    shuffled = votes[:]
    rng.shuffle(shuffled)
    assert tally_alg(votes) == tally_alg(shuffled)


def test_tally_alg_buckets_rejected_values():
    got = tally_alg([0, -1, 2, 9], candidate_bound=3)
    assert got == {REJECTED_PLAINTEXT: 2, 0: 1, 2: 1}


# --------------------------------------------------------- honest elections

def test_honest_election_is_valid_and_tally_matches_intents():
    result = run_election(honest_config())
    assert result.verdict == AuditVerdict(True, None)
    intents = result.transcript.manifest["intents"]
    assert result.tally == dict(Counter(intents))


def test_honest_election_many_seeds():
    for seed in range(12):
        result = run_election(honest_config(seed=seed, n_voters=4))
        assert result.verdict.valid, seed
        intents = result.transcript.manifest["intents"]
        assert result.tally == dict(Counter(intents)), seed


def test_fixed_intents_are_respected():
    result = run_election(honest_config(n_voters=3, intents=(2, 2, 0)))
    assert result.tally == {0: 1, 2: 2}


def test_transcripts_are_seed_deterministic():
    a = run_election(honest_config()).transcript.to_jsonl()
    b = run_election(honest_config()).transcript.to_jsonl()
    assert a == b


def test_transcripts_differ_across_seeds():
    a = run_election(honest_config(seed=1)).transcript.to_jsonl()
    b = run_election(honest_config(seed=2)).transcript.to_jsonl()
    assert a.splitlines()[1:] != b.splitlines()[1:]


def test_event_phases_progress_in_order():
    result = run_election(honest_config())
    order = {"preparation": 0, "voting": 1, "tally": 2, "audit": 3}
    phases = [order[e["phase"]] for e in result.transcript.events]
    assert phases == sorted(phases)
    assert set(phases) == {0, 1, 2, 3}


def test_standard_group_election():
    cfg = honest_config(n_voters=2, group_preset="standard", seed=3)
    result = run_election(cfg)
    assert result.verdict.valid
    intents = result.transcript.manifest["intents"]
    assert result.tally == dict(Counter(intents))


# ------------------------------------------------------------ vote scripts

def events_for_voter(transcript, voter_id, kinds):
    actor = f"voter-{voter_id}"
    return [e for e in transcript.events
            if e["actor"] == actor and e["kind"] in kinds]


def test_revote_script_casts_twice():
    result = run_election(honest_config(scripts={1: "VV"}))
    casts = events_for_voter(result.transcript, 1, {"cast"})
    assert len(casts) == 2
    assert result.verdict.valid


def test_honest_check_passes_without_complaint():
    result = run_election(honest_config(scripts={2: "VC"}))
    checks = events_for_voter(result.transcript, 2, {"check"})
    assert len(checks) == 1
    assert checks[0]["payload"]["matches"] == 1
    assert not events_for_voter(result.transcript, 2, {"complaint"})
    assert result.verdict.valid


def test_last_ballot_is_the_counted_one_honest_first_cast_bad():
    # Policy manipulates the first cast only; the re-vote repairs it.
    policy = ManipulationPolicy.from_table({"": True, "V": False})
    cfg = honest_config(n_voters=3, intents=(1, 0, 2), corrupted=(1,),
                        policy=policy, scripts={1: "VV"})
    result = run_election(cfg)
    assert result.verdict.valid
    assert result.tally == {0: 1, 1: 1, 2: 1}


def test_last_ballot_is_the_counted_one_final_cast_bad():
    # Honest first cast, manipulated re-vote: the tally shifts by the offset.
    policy = ManipulationPolicy.from_table({"": False, "V": True})
    cfg = honest_config(n_voters=3, intents=(1, 0, 2), corrupted=(1,),
                        policy=policy, scripts={1: "VV"})
    result = run_election(cfg)
    assert result.tally == {0: 1, 2: 2}  # voter 1 counted as (1+1) % 3


def test_manipulated_check_complains_and_halts():
    cfg = corrupted_config(scripts={1: "VCV"})
    result = run_election(cfg)
    assert result.verdict == AuditVerdict(False, "complaint")
    casts = events_for_voter(result.transcript, 1, {"cast"})
    assert len(casts) == 1  # the trailing V never happens after the complaint
    complaints = events_for_voter(result.transcript, 1, {"complaint"})
    assert len(complaints) == 1


def test_detection_implies_invalid_across_seeds():
    for seed in range(20):
        cfg = corrupted_config(seed=seed, scripts={1: "VC"})
        result = run_election(cfg)
        assert result.verdict == AuditVerdict(False, "complaint"), seed


def test_silent_manipulation_passes_the_audit():
    # Nobody checks, so the tampered tally sails through: the gap the
    # detection math quantifies.
    cfg = corrupted_config(n_voters=3, intents=(1, 0, 2), scripts={1: "V"})
    result = run_election(cfg)
    assert result.verdict.valid
    assert result.tally == {0: 1, 2: 2}


# ------------------------------------------------------------ EA behaviors

def test_ea_accept_ballot_records_and_overwrites():
    params = setup("toy", 3)
    board = BulletinBoard(SID)
    reg = CertRegistry()
    kg = KeyGenService(SID, params, 2, 3, Stream(0, "keygen"))
    for j in (1, 2, 3):
        kg.ready(j)
    pk = kg.pubkey()
    dev = VotingDevice(SID, 1, reg, Stream(1, "vsd"))
    b1, _ = dev.cast(pk, 0)
    b2, _ = dev.cast(pk, 2)
    assert ea_accept_ballot(SID, reg, board, b1)
    assert ea_accept_ballot(SID, reg, board, b2)
    entries = list(board.snapshot()[1])
    assert len(entries) == 2
    assert last_ballots(entries, 1) == [list(b2.c)]  # the re-vote is the one counted


def test_ea_accept_ballot_rejects_forged_signature():
    params = setup("toy", 3)
    board = BulletinBoard(SID)
    reg = CertRegistry()
    kg = KeyGenService(SID, params, 2, 3, Stream(0, "keygen"))
    for j in (1, 2, 3):
        kg.ready(j)
    pk = kg.pubkey()
    dev = VotingDevice(SID, 1, reg, Stream(1, "vsd"))
    ballot, _ = dev.cast(pk, 0)
    forged = Ballot(ballot.ssid, ballot.c, "f" * 32)
    assert not ea_accept_ballot(SID, reg, board, forged)
    assert board.snapshot()[1] == ()


# ------------------------------------------------------------- tampering

TAMPER_REASONS = {
    "forge-signature": "bad-signature",
    "mix-non-last": "last-ballot-mismatch",
    "tamper-shuffle-output": "shuffle-proof",
    "tamper-plaintext": "decryption",
}


def tamper_config(mode, **kw):
    # Substituting a non-final ballot requires someone to have re-voted.
    if mode == "mix-non-last":
        kw.setdefault("scripts", {1: "VV"})
    return honest_config(tamper=mode, **kw)


@pytest.mark.parametrize("mode", TAMPER_MODES)
def test_tamper_modes_flip_the_verdict(mode):
    for seed in range(10):
        result = run_election(tamper_config(mode, seed=seed))
        assert result.verdict == AuditVerdict(False, TAMPER_REASONS[mode]), seed


@pytest.mark.parametrize("mode", TAMPER_MODES)
def test_tamper_modes_flip_the_verdict_in_the_mid_group(mode):
    # a 387-bit group, where the shuffle's challenges are 128-bit integers
    # and its responses integers below 2^385, as in the standard group
    for seed in range(5):
        result = run_election(tamper_config(mode, seed=seed, group_preset="mid"))
        assert result.verdict == AuditVerdict(False, TAMPER_REASONS[mode]), seed
        stored = ElectionTranscript.from_jsonl(result.transcript.to_jsonl())
        assert audit_transcript(stored)[0] == result.verdict


def test_mid_group_election():
    result = run_election(honest_config(group_preset="mid", seed=4))
    assert result.verdict.valid
    assert result.tally == dict(Counter(result.transcript.manifest["intents"]))
    stored = ElectionTranscript.from_jsonl(result.transcript.to_jsonl())
    assert audit_transcript(stored)[0] == result.verdict


def test_tamper_plaintext_reposts_the_decrypted_list():
    # the decryption service posts what it decrypts; the authority then
    # posts the list again with its first value moved, and tallies that
    result = run_election(tamper_config("tamper-plaintext"))
    posted = [board_entry(e, "plaintexts")["values"] for e in result.transcript.events
              if board_entry(e, "plaintexts") is not None]
    assert len(posted) == 2
    decrypted, moved = posted
    params = setup("toy", 3)
    sk = SecretKey(params, result.transcript.events_of("election-key")[-1]["payload"]["sk"])
    assert decrypted == decrypt_all(sk, _posted(result, "shuffle")["outputs"])
    assert moved == [(decrypted[0] + 1) % 3, *decrypted[1:]]
    assert result.tally == tally_alg(moved, 3)
    assert result.verdict == AuditVerdict(False, "decryption")


def test_mix_non_last_needs_a_revoter():
    with pytest.raises(CeremonyError):
        run_election(tamper_config("mix-non-last", scripts={i: "V" for i in range(1, 7)}))


def test_unknown_tamper_mode_rejected():
    with pytest.raises(ValueError):
        honest_config(tamper="melt-the-urn")


# ---------------------------------------------------------------- replay

def test_replay_agrees_with_recorded_verdict():
    result = run_election(honest_config())
    recomputed, recorded = audit_transcript(result.transcript)
    assert recomputed == recorded == result.verdict


REPLAY_CASES = {
    "honest": (honest_config(), None),
    **{mode: (tamper_config(mode), reason) for mode, reason in TAMPER_REASONS.items()},
    "complaint": (corrupted_config(scripts={1: "VC"}), "complaint"),
}


@pytest.mark.parametrize("case", REPLAY_CASES)
def test_replay_agrees_on_tampered_runs(case):
    # through the stored form: the live verdict is the audit of the
    # in-memory transcript, so only a round trip can disagree with it
    config, reason = REPLAY_CASES[case]
    result = run_election(config)
    stored = ElectionTranscript.from_jsonl(result.transcript.to_jsonl())
    recomputed, recorded = audit_transcript(stored)
    assert recomputed == recorded == result.verdict == AuditVerdict(reason is None, reason)


def test_replay_detects_transcript_edits():
    result = run_election(honest_config())
    text = result.transcript.to_jsonl()
    lines = text.splitlines()
    edited = []
    done = False
    for line in lines:
        obj = json.loads(line)
        if not done and obj.get("kind") == "priv-post" \
                and obj["payload"]["entry"].get("kind") == "ballot":
            obj["payload"]["entry"]["c"][1] ^= 1  # flip one ciphertext bit
            done = True
        edited.append(json.dumps(obj, sort_keys=True, separators=(",", ":")))
    assert done
    transcript = ElectionTranscript.from_jsonl("\n".join(edited) + "\n")
    recomputed, recorded = audit_transcript(transcript)
    assert recorded.valid
    assert not recomputed.valid


def replay_edited(result, edit) -> AuditVerdict:
    """The recomputed verdict of the run's stored transcript after
    edit(event) has changed its events in place."""
    events = [json.loads(line) for line in result.transcript.to_jsonl().splitlines()]
    for event in events:
        edit(event)
    text = "".join(json.dumps(event) + "\n" for event in events)
    return audit_transcript(ElectionTranscript.from_jsonl(text))[0]


def board_entry(event, kind):
    entry = event.get("payload", {}).get("entry")
    return entry if isinstance(entry, dict) and entry.get("kind") == kind else None


def test_a_rewritten_tally_is_invalid():
    result = run_election(honest_config(n_voters=5, seed=1))
    assert result.tally == {0: 2, 1: 1, 2: 2} and result.verdict.valid

    def rewrite(counts):
        def edit(event):
            entry = board_entry(event, "tally")
            if entry is not None:
                entry["counts"] = counts
        return edit

    assert replay_edited(result, rewrite({"0": 5})) == AuditVerdict(False, "tally")
    assert replay_edited(result, rewrite({"0": 2, "1": 1})) == AuditVerdict(False, "tally")

    def drop(event):
        entry = board_entry(event, "tally")
        if entry is not None:
            entry["kind"] = "note"

    assert replay_edited(result, drop) == AuditVerdict(False, "tally")
    # JSON true is not a count of 1, and a malformed tally names its field
    for counts in ({"0": 2, "1": True, "2": 2}, {"0": "1"}, [2, 1, 2]):
        with pytest.raises(ReplayError, match="counts"):
            replay_edited(result, rewrite(counts))


def test_a_proof_has_one_transcript_text():
    # the audit reads the proof only from the base64 text proof_to_text
    # gives: whitespace, non-ASCII, and base64 whose unused low bits are
    # set, which decodes to the same bytes, are not proof texts; hex is
    # base64 of other bytes, no proof.  Each ends invalid
    result = run_election(honest_config(n_voters=6, seed=3))
    assert result.verdict.valid
    text = _posted(result, "shuffle")["proof"]
    blob = proof_from_text(text)
    assert blob is not None and proof_to_text(blob) == text
    assert text.endswith("==")     # 796 bytes: the last character keeps 4 unused bits
    alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
    unused = text[:-3] + alphabet[alphabet.index(text[-3]) ^ 1] + "=="
    assert base64.b64decode(unused) == blob
    others = (text[:40] + "\n" + text[40:], text[:-3] + "é==", unused)
    assert [proof_from_text(other) for other in others] == [None] * 3
    for other in (blob.hex(), *others):
        def edit(event, other=other):
            if board_entry(event, "shuffle") is not None:
                event["payload"]["entry"]["proof"] = other

        assert replay_edited(result, edit) == AuditVerdict(False, "shuffle-proof")


def test_a_key_that_does_not_match_h_is_invalid():
    # in the toy group another sk may open the outputs to other candidates;
    # a transcript that posts them, and their tally, still fails on the key
    params = setup("toy", 3)

    def other_openings(seed):
        result = run_election(honest_config(n_voters=3, seed=seed))
        assert result.verdict.valid
        sk = result.transcript.events_of("election-key")[-1]["payload"]["sk"]
        outputs = _posted(result, "shuffle")["outputs"]
        posted = _posted(result, "plaintexts")["values"]
        for x in range(1, params.q):
            values = decrypt_all(SecretKey(params, x), outputs)
            if x != sk and REJECTED_PLAINTEXT not in values and values != posted:
                yield result, x, values

    result, other, values = next(found for seed in range(2, 50) for found in other_openings(seed))
    counts = {str(c): v for c, v in tally_alg(values, 3).items()}

    def edit(event):
        if event.get("kind") == "election-key":
            event["payload"]["sk"] = other
        if board_entry(event, "plaintexts") is not None:
            event["payload"]["entry"]["values"] = values
        if board_entry(event, "tally") is not None:
            event["payload"]["entry"]["counts"] = counts

    assert replay_edited(result, edit) == AuditVerdict(False, "decryption")


# ------------------------------------------- one weighted product per audit

@pytest.fixture(scope="module", params=["toy", "mid", "standard"])
def three_voter_run(request):
    result = run_election(honest_config(n_voters=3, seed=4, group_preset=request.param))
    assert result.verdict.valid
    return result


def test_a_valid_replay_is_one_product_and_no_power(three_voter_run, monkeypatch):
    # the shuffle's and the plaintexts' equations are checked together
    calls = []

    def counting(params, equations):
        calls.append(params)
        return groups.products_equal(params, equations)

    def no_power(*args):
        raise AssertionError("a valid replay makes no power of its own")

    for module in (ceremony, functionalities, shuffle):
        monkeypatch.setattr(module, "products_equal", counting)
    monkeypatch.setattr(groups, "power", no_power)
    monkeypatch.setattr(elgamal, "power", no_power)
    stored = ElectionTranscript.from_jsonl(three_voter_run.transcript.to_jsonl())
    assert audit_transcript(stored)[0] == AuditVerdict(True, None)
    assert len(calls) == 1


def test_the_toy_group_never_weighs_its_equations(monkeypatch):
    # q = 11 checks each equation alone: a run, its replay and each check
    # stand without batch weights, and so does a rejection
    def no_weights(*args):
        raise AssertionError("the toy group hashes no batch weights")

    for module in (groups, functionalities):
        monkeypatch.setattr(module, "batch_weights", no_weights)
    result = run_election(honest_config(n_voters=3, seed=4, group_preset="toy"))
    assert result.verdict == AuditVerdict(True, None)
    stored = ElectionTranscript.from_jsonl(result.transcript.to_jsonl())
    assert audit_transcript(stored)[0] == AuditVerdict(True, None)
    assert _replay_with(result, forge_proof=True) == AuditVerdict(False, "shuffle-proof")

    params = setup("toy", 3)
    shuffled = _posted(result, "shuffle")
    pk = elgamal.PublicKey(params, _posted(result, "pubkey")["h"])
    statement = shuffle.ShuffleStatement(pk=pk, inputs=shuffled["inputs"],
                                         outputs=shuffled["outputs"])
    assert shuffle.verify_shuffle(statement, proof_from_text(shuffled["proof"]))
    sk = SecretKey(params, result.transcript.events_of("election-key")[-1]["payload"]["sk"])
    values = _posted(result, "plaintexts")["values"]
    assert functionalities.plaintexts_match(sk, pk.h, shuffled["outputs"], values)


def _posted(result, kind) -> dict:
    """The last board entry of one kind in the run's transcript."""
    return [board_entry(e, kind) for e in result.transcript.events
            if board_entry(e, kind) is not None][-1]


def _replay_with(result, forge_proof=False, values=None, sk=None) -> AuditVerdict:
    """The recomputed verdict after the first round's s_bar is changed
    (`forge_proof`), `values` and their tally are posted, or the key is
    replaced by `sk`."""
    manifest = result.transcript.manifest
    params = setup(manifest["group_preset"], manifest["candidate_bound"])

    def edit(event):
        shuffled = board_entry(event, "shuffle")
        if forge_proof and shuffled is not None:
            proof = proof_from_text(shuffled["proof"])
            s_bar = repetitions(proof, params)[0]["s_bar"]
            forged = with_fields(proof, params, s_bar=(s_bar + 1) % params.q)
            shuffled["proof"] = proof_to_text(forged)
        if values is not None and board_entry(event, "plaintexts") is not None:
            event["payload"]["entry"]["values"] = values
        if values is not None and board_entry(event, "tally") is not None:
            counts = tally_alg(values, params.candidate_bound)
            event["payload"]["entry"]["counts"] = {str(c): v for c, v in counts.items()}
        if sk is not None and event.get("kind") == "election-key":
            event["payload"]["sk"] = sk

    return replay_edited(result, edit)


def _wrong_plaintexts(values) -> list:
    """A value changed, one out of range, and one missing; each posted
    with its tally."""
    return [[(values[0] + 1) % 3, *values[1:]], [7, *values[1:]], values[:-1]]


def test_a_false_proof_is_named_before_false_plaintexts(three_voter_run):
    values = _posted(three_voter_run, "plaintexts")["values"]
    for wrong in (None, *_wrong_plaintexts(values)):
        assert _replay_with(three_voter_run, forge_proof=True, values=wrong) == \
            AuditVerdict(False, "shuffle-proof"), wrong


def test_false_plaintexts_or_key_under_a_valid_proof_are_decryption(three_voter_run):
    values = _posted(three_voter_run, "plaintexts")["values"]
    for wrong in _wrong_plaintexts(values):
        assert _replay_with(three_voter_run, values=wrong) == \
            AuditVerdict(False, "decryption"), wrong
    # a key other than h's, with the values it decrypts to and their tally
    manifest = three_voter_run.transcript.manifest
    params = setup(manifest["group_preset"], manifest["candidate_bound"])
    sk = three_voter_run.transcript.events_of("election-key")[-1]["payload"]["sk"]
    other = sk % (params.q - 1) + 1
    opened = decrypt_all(SecretKey(params, other), _posted(three_voter_run, "shuffle")["outputs"])
    assert _replay_with(three_voter_run, values=opened, sk=other) == \
        AuditVerdict(False, "decryption")


# ------------------------------------------------- one key, before the ballots

def _replayed(events) -> AuditVerdict:
    """The recomputed verdict of a transcript's events, renumbered in
    their list order."""
    for seq, event in enumerate(events[1:], start=1):
        event["seq"] = seq
    text = "".join(json.dumps(event) + "\n" for event in events)
    return audit_transcript(ElectionTranscript.from_jsonl(text))[0]


def _remix(result, pk, rng):
    """The run's mix inputs shuffled again under pk: the outputs and the
    proof's bytes, which verify."""
    params = pk.params
    inputs = [elgamal.Ciphertext(*c) for c in _posted(result, "shuffle")["inputs"]]
    perm = list(range(len(inputs)))
    rng.shuffle(perm)
    rands = rng.scalars(params.q, len(inputs))
    outputs = [elgamal.rerandomize(pk, inputs[j], r) for j, r in zip(perm, rands)]
    statement = shuffle.ShuffleStatement(pk=pk, inputs=inputs, outputs=outputs)
    proof = shuffle.prove_shuffle(statement, shuffle.ShuffleWitness(perm, rands), rng)
    assert shuffle.verify_shuffle(statement, proof)
    return outputs, proof


def _post(kind, entry) -> dict:
    return {"seq": 0, "phase": "tally", "actor": f"{kind.split('-')[0]}-board", "kind": kind,
            "payload": {"entry": entry}}


@pytest.mark.parametrize("preset", ["toy", "mid"])
def test_a_second_key_posted_after_voting_is_invalid(preset):
    # the authority posts h' = g^sk' after the ballots, re-mixes them under
    # h' with a valid proof, and posts what sk' opens them to, its tally
    # and sk'; every other check passes, and the tally is not the run's
    result = run_election(honest_config(n_voters=5, seed=3, group_preset=preset))
    assert result.verdict.valid
    params = setup(preset, 3)
    sk = result.transcript.events_of("election-key")[-1]["payload"]["sk"]
    pk2, sk2 = elgamal.make_keypair(params, sk % (params.q - 1) + 1)
    outputs, proof = _remix(result, pk2, Stream(0, f"rekey/{preset}"))
    values = decrypt_all(sk2, outputs)
    assert functionalities.plaintexts_match(sk2, pk2.h, outputs, values)
    counts = {str(c): v for c, v in tally_alg(values, 3).items()}
    assert counts != _posted(result, "tally")["counts"]

    events = [json.loads(line) for line in result.transcript.to_jsonl().splitlines()]
    for event in events:
        if board_entry(event, "shuffle") is not None:
            event["payload"]["entry"].update(outputs=[list(c) for c in outputs],
                                             proof=proof_to_text(proof))
        if board_entry(event, "plaintexts") is not None:
            event["payload"]["entry"]["values"] = values
        if board_entry(event, "tally") is not None:
            event["payload"]["entry"]["counts"] = counts
        if event.get("kind") == "election-key":
            event["payload"]["sk"] = sk2.sk
    mix = next(i for i, e in enumerate(events) if board_entry(e, "shuffle") is not None)
    events.insert(mix, _post("pub-post", {"kind": "pubkey", "h": pk2.h}))
    assert _replayed(events) == AuditVerdict(False, "key")


def test_the_one_key_must_come_before_the_first_ballot():
    result = run_election(honest_config(n_voters=5, seed=3))
    fresh = lambda: [json.loads(line) for line in result.transcript.to_jsonl().splitlines()]
    events = fresh()
    key = next(i for i, e in enumerate(events) if board_entry(e, "pubkey") is not None)
    ballot = next(i for i, e in enumerate(events) if board_entry(e, "ballot") is not None)
    assert key < ballot and _replayed(events) == AuditVerdict(True, None)
    # the same key posted twice, or moved past the first ballot
    events = fresh()
    twice = events[: key + 1] + fresh()[key : key + 1] + events[key + 1 :]
    assert _replayed(twice) == AuditVerdict(False, "key")
    events = fresh()
    moved = events[:key] + events[key + 1 : ballot + 1] + [events[key]] + events[ballot + 1 :]
    assert _replayed(moved) == AuditVerdict(False, "key")


def test_a_run_with_no_shuffle_posted_is_a_shuffle_proof_verdict():
    # named ahead of the last-ballot check, which such a run cannot pass
    events = [json.loads(line) for line in
              run_election(honest_config()).transcript.to_jsonl().splitlines()]
    kept = [e for e in events if board_entry(e, "shuffle") is None]
    assert len(kept) == len(events) - 1
    assert _replayed(kept) == AuditVerdict(False, "shuffle-proof")


@pytest.mark.parametrize("preset", ["toy", "mid"])
def test_a_shuffle_posted_twice_is_judged_by_the_last(preset):
    # the authority mixes the same inputs again under the run's key, with
    # a valid proof, and posts that shuffle after the first: the audit
    # reads the latest one, so the plaintexts must open it
    result = run_election(honest_config(n_voters=5, seed=3, group_preset=preset))
    assert result.verdict.valid
    params = setup(preset, 3)
    pk = elgamal.PublicKey(params, _posted(result, "pubkey")["h"])
    sk = SecretKey(params, result.transcript.events_of("election-key")[-1]["payload"]["sk"])
    for attempt in range(10):   # a re-mix that the posted plaintexts do not open
        outputs, proof = _remix(result, pk, Stream(attempt, f"remix/{preset}"))
        values = decrypt_all(sk, outputs)
        if values != _posted(result, "plaintexts")["values"]:
            break
    assert values != _posted(result, "plaintexts")["values"]
    counts = {str(c): v for c, v in tally_alg(values, 3).items()}
    assert counts == {str(c): v for c, v in result.tally.items()}

    events = [json.loads(line) for line in result.transcript.to_jsonl().splitlines()]
    mix = next(i for i, e in enumerate(events) if board_entry(e, "shuffle") is not None)
    events.insert(mix + 1, _post("priv-post", {**_posted(result, "shuffle"), "proof": proof_to_text(proof),
                                               "outputs": [list(c) for c in outputs]}))
    # the old plaintexts do not open the second shuffle
    assert _replayed(events) == AuditVerdict(False, "decryption")
    # its own plaintexts and tally, posted after the old ones, do
    tally = next(i for i, e in enumerate(events) if board_entry(e, "tally") is not None)
    events[tally + 1 : tally + 1] = [
        _post("pub-post", {"kind": "plaintexts", "values": values}),
        _post("pub-post", {"kind": "tally", "counts": counts})]
    assert _replayed(events) == AuditVerdict(True, None)


BOARD_SEQ_FORMS = {
    "counted 1..k": lambda k: range(1, k + 1),
    "rewritten in reverse": lambda k: range(k, 0, -1),
    "duplicated": lambda k: [1] * k,
    "not a number": lambda k: ["x"] * k,
}


@pytest.mark.parametrize("preset", ["toy", "mid"])
def test_a_board_seq_in_a_post_is_ignored(preset):
    # transcripts written before posts dropped board_seq state it as the
    # board's own count 1..k; a post's position is its event's seq alone,
    # so a board_seq in any form leaves the verdict as it is
    configs = {"honest": honest_config(n_voters=4, seed=2, group_preset=preset),
               "plaintext": tamper_config("tamper-plaintext", n_voters=4, group_preset=preset),
               "complaint": corrupted_config(n_voters=4, scripts={1: "VC"}, group_preset=preset)}
    texts = {name: run_election(config).transcript.to_jsonl() for name, config in configs.items()}
    transcripts = {name: [json.loads(line) for line in text.splitlines()]
                   for name, text in texts.items()}
    # the key moved past the first ballot, where a count in reverse would
    # put it first
    events = [json.loads(line) for line in texts["honest"].splitlines()]
    key = next(i for i, e in enumerate(events) if board_entry(e, "pubkey") is not None)
    ballot = next(i for i, e in enumerate(events) if board_entry(e, "ballot") is not None)
    transcripts["key after a ballot"] = (events[:key] + events[key + 1 : ballot + 1]
                                         + [events[key]] + events[ballot + 1 :])
    expected = {"honest": AuditVerdict(True, None),
                "plaintext": AuditVerdict(False, "decryption"),
                "complaint": AuditVerdict(False, "complaint"),
                "key after a ballot": AuditVerdict(False, "key")}
    for name, events in transcripts.items():
        assert _replayed(events) == expected[name], name
        posts = [e for e in events[1:] if e["kind"] in ("pub-post", "priv-post")]
        for form, numbers in BOARD_SEQ_FORMS.items():
            for post, number in zip(posts, numbers(len(posts))):
                post["payload"]["board_seq"] = number
            assert _replayed(events) == expected[name], (name, form)


def test_transcript_jsonl_roundtrip():
    result = run_election(honest_config())
    text = result.transcript.to_jsonl()
    back = ElectionTranscript.from_jsonl(text)
    assert back.to_jsonl() == text
    assert back.manifest == result.transcript.manifest


def test_from_jsonl_splits_lines_at_newline_only():
    # JSON allows U+2028 raw in a string, and a \r before the \n as whitespace
    result = run_election(honest_config(n_voters=2, sid="a\u2028b"))
    text = result.transcript.to_jsonl()
    raw = "".join(json.dumps(json.loads(line), ensure_ascii=False) + "\n"
                  for line in text.split("\n") if line)
    assert "\u2028" in raw
    for form in (raw, text.replace("\n", "\r\n")):
        recomputed, recorded = audit_transcript(ElectionTranscript.from_jsonl(form))
        assert recomputed == recorded == AuditVerdict(True)


def test_from_jsonl_rejects_malformed_input():
    result = run_election(honest_config(n_voters=2))
    lines = result.transcript.to_jsonl().splitlines()
    with pytest.raises(ReplayError):
        ElectionTranscript.from_jsonl("")
    with pytest.raises(ReplayError):
        ElectionTranscript.from_jsonl("not json\n")
    with pytest.raises(ReplayError):
        # events out of order
        ElectionTranscript.from_jsonl(
            "\n".join([lines[0]] + lines[2:3] + lines[1:2]) + "\n")
    broken = json.loads(lines[1])
    del broken["seq"]
    with pytest.raises(ReplayError):
        ElectionTranscript.from_jsonl(
            lines[0] + "\n" + json.dumps(broken) + "\n")


def test_from_jsonl_names_the_line_and_field_of_a_bad_event():
    lines = run_election(honest_config(n_voters=2)).transcript.to_jsonl().splitlines()
    event = json.loads(lines[1])
    no_payload = {k: v for k, v in event.items() if k != "payload"}
    for field, broken in (("seq", {**event, "seq": "1"}), ("payload", no_payload)):
        # line 2 is blank
        text = "\n".join([lines[0], "", json.dumps(broken)]) + "\n"
        with pytest.raises(ReplayError, match=f"^line 3: .*'{field}'"):
            ElectionTranscript.from_jsonl(text)
    with pytest.raises(ReplayError, match="^line 2: missing or malformed 'manifest'"):
        ElectionTranscript.from_jsonl('\n{"events": []}\n')


def test_replay_needs_audit_material():
    result = run_election(honest_config(n_voters=2))
    lines = [l for l in result.transcript.to_jsonl().splitlines()
             if '"election-key"' not in l]
    transcript = ElectionTranscript.from_jsonl("\n".join(lines) + "\n")
    with pytest.raises(ReplayError):
        audit_transcript(transcript)


# ---------------------------------------------------------- configuration

def test_config_validation_errors():
    with pytest.raises(ValueError):
        honest_config(threshold=4)  # above trustee count
    with pytest.raises(ValueError):
        honest_config(n_voters=0)
    with pytest.raises(ValueError):
        honest_config(corrupted=(9,), policy=ManipulationPolicy.always())
    with pytest.raises(ValueError):
        honest_config(corrupted=(1,))  # corrupted voters need a policy
    with pytest.raises(ValueError, match="manipulation needs at least two candidates"):
        honest_config(corrupted=(1,), policy=ManipulationPolicy.always(), candidate_bound=1)
    with pytest.raises(ValueError, match="tamper-plaintext needs at least two candidates"):
        honest_config(tamper="tamper-plaintext", candidate_bound=1)
    for offset in (0, 3, -3):
        # C = 3: the device would encrypt the voter's own intent while its
        # cast event says manipulated, so no trial could be detected
        with pytest.raises(ValueError, match="multiple of candidate_bound"):
            honest_config(corrupted=(1,), policy=ManipulationPolicy.always(),
                          manipulation_offset=offset)
    with pytest.raises(ValueError):
        honest_config(intents=(0, 1))  # wrong length
    with pytest.raises(ValueError):
        honest_config(n_voters=2, intents=(0, 5))  # out of range
    with pytest.raises(ValueError):
        honest_config(scripts={7: "V"})  # unknown voter
    with pytest.raises(ValueError):
        honest_config(scripts={1: "CV"})  # malformed pattern
    # a key is a voter id or its decimal text: "01" would overwrite voter
    # 1's script, True and 1.7 pass int() as voter 1, None fails inside it
    for scripts in ({"1": "V", "01": "VV"}, {1: "V", "1": "VV"}, {True: "V"}, {1.7: "V"},
                    {None: "V"}, {"abc": "V"}, {"": "V"}, {"-1": "V"}, {"1" * 5000: "V"}):
        with pytest.raises(ValueError, match="scripts"):
            honest_config(scripts=scripts)
    assert honest_config(scripts={"1": "VV", 2: "VC"}).scripts == {1: "VV", 2: "VC"}
    for sid in (7, None, ["e"]):
        with pytest.raises(ValueError):
            honest_config(sid=sid)  # replay accepts only a string sid
    for wrong_type in (dict(n_voters=True),  # a bool is not an integer here
                       dict(candidate_bound=3.0),
                       dict(corrupted=(True,), policy=ManipulationPolicy.always()),
                       dict(intents=["0"] * 6), dict(scripts=["V"])):
        with pytest.raises(ValueError):
            honest_config(**wrong_type)


class DecideOnly:
    def decide(self, history):
        return True


def test_a_policy_must_describe_itself():
    # the manifest records policy.describe(): an object's repr would put its
    # memory address there, and one config would give two transcripts
    with pytest.raises(ValueError, match="^policy has the wrong type"):
        corrupted_config(policy=DecideOnly())
    manifest = run_election(corrupted_config()).transcript.manifest
    assert manifest["policy"] == ManipulationPolicy.always().describe()


def test_config_keeps_every_trustee_index_below_q():
    # trustee i holds the key share at x = i mod q: in the toy group
    # (q = 11) trustee 11 would hold the key itself, and trustees 1 and 12
    # one point, which reconstruction cannot invert
    for k, t in ((11, 2), (12, 12)):
        with pytest.raises(ValueError, match="n_trustees"):
            honest_config(n_trustees=k, threshold=t)
    assert run_election(honest_config(n_trustees=10, threshold=2)).verdict.valid
    assert honest_config(n_trustees=12, threshold=12, group_preset="mid").n_trustees == 12
    # the group is set up when the config is built, so its errors show there
    with pytest.raises(UnknownPreset):
        honest_config(group_preset="huge")
    with pytest.raises(ValueError, match="candidate_bound"):
        honest_config(candidate_bound=12)


def test_config_caps_n_trustees_in_every_group():
    # in a large group q admits any count a config can hold, but dealing
    # and reconstructing are quadratic in it
    assert ceremony.MAX_TRUSTEES == 256
    for preset in ("mid", "standard"):
        for k in (ceremony.MAX_TRUSTEES + 1, 10**8):
            with pytest.raises(ValueError, match="n_trustees"):
                honest_config(n_trustees=k, threshold=1, group_preset=preset)
        assert honest_config(n_trustees=256, threshold=1, group_preset=preset).n_trustees == 256


def test_config_caps_the_length_of_a_script():
    for length in (MAX_PATTERN_LEN + 1, 2_000_000):
        with pytest.raises(ValueError, match="scripts"):
            honest_config(scripts={1: "V" * length})
    assert honest_config(scripts={1: "V" * MAX_PATTERN_LEN}).scripts[1] == "V" * MAX_PATTERN_LEN


def test_config_caps_n_voters_at_what_the_proof_verifier_reads():
    assert shuffle.MAX_PROOF_N == 2**20
    for n in (shuffle.MAX_PROOF_N + 1, 2**64):
        with pytest.raises(ValueError, match="n_voters"):
            honest_config(n_voters=n)
