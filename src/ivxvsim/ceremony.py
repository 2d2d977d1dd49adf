"""One full election run: preparation, voting, tally, audit.

The run is a pure function of its configuration.  Every component draws
from its own seeded stream, voters execute their scripts in id order,
and everything observable lands in an append-only transcript that can
be re-audited offline.

Tamper modes exist to exercise the audit: each one makes a single
authority-side modification that exactly one audit check must catch.
"""

from __future__ import annotations

import base64
import json
from dataclasses import MISSING, dataclass, field, fields
from itertools import chain
from typing import NamedTuple, Optional

from .behavior import (BadDistribution, BehaviorDistribution, default_distribution,
                       validate_pattern)
from .elgamal import Ciphertext, PublicKey, SecretKey, encrypt, rerandomize
from .groups import products_equal, setup
from .functionalities import (AuditDevice, BulletinBoard, CertRegistry,
                              DecryptionService, KeyGenService, REJECTED_PLAINTEXT,
                              VotingDevice, cipher_bytes, last_ballots, latest_entry,
                              plaintext_equations)
from .seeding import rng_for
from .shuffle import (MAX_PROOF_N, ShuffleStatement, ShuffleWitness, prove_shuffle,
                      serialize_proof, shuffle_equations, verify_shuffle)

TOOL_VERSION = "0.1.0"

TAMPER_MODES = ("forge-signature", "mix-non-last", "tamper-shuffle-output",
                "tamper-plaintext")

# The most trustees a config names, in any group (the toy group's q = 11
# allows 10): dealing and reconstructing the key take time quadratic in
# the count, about 0.06 s for 256 trustees, all needed, in the standard group.
MAX_TRUSTEES = 256


class CeremonyError(Exception):
    """A run aborted with a diagnostic."""


class ReplayError(Exception):
    """Transcript too damaged to re-audit."""


class AuditVerdict(NamedTuple):
    valid: bool
    reason: Optional[str] = None


class ElectionResult(NamedTuple):
    transcript: "ElectionTranscript"
    tally: dict
    verdict: AuditVerdict


def _is_int(value) -> bool:
    return type(value) is int          # JSON true/false are not numbers here


def _is_str(value) -> bool:
    return isinstance(value, str)


def _is_int_seq(value) -> bool:
    return isinstance(value, (list, tuple)) and all(map(_is_int, value))


def _voter_id(key) -> Optional[int]:
    """A `scripts` key as a voter id: an integer, or its decimal text as
    str() writes it, the form of a JSON key, of at most 20 digits, so that
    int() reads no long text; else None.  So "01" and True name no voter."""
    if _is_int(key):
        return key
    if isinstance(key, str) and 0 < len(key) <= 20 and key.isascii() and key.isdigit() \
            and str(int(key)) == key:
        return int(key)
    return None


def _typed(check, default=MISSING):
    """A config field whose value must pass `check`, or be None where None is
    the default, before any rule on its value is tested."""
    admits = check if default is not None else lambda value: value is None or check(value)
    return field(default=default, metadata={"check": admits})


@dataclass(frozen=True)
class ElectionConfig:
    n_voters: int = _typed(_is_int)
    n_trustees: int = _typed(_is_int)
    threshold: int = _typed(_is_int)
    candidate_bound: int = _typed(_is_int, 2)
    group_preset: str = _typed(_is_str, "toy")
    seed: int = _typed(_is_int, 0)
    distribution: Optional[BehaviorDistribution] = _typed(  # None = shipped default
        lambda v: isinstance(v, BehaviorDistribution), None)
    corrupted: tuple = _typed(_is_int_seq, ())  # voter ids with a corrupted casting device
    # decide(history) -> bool, for corrupted devices
    policy: object = _typed(lambda v: hasattr(v, "decide"), None)
    manipulation_offset: int = _typed(_is_int, 1)
    intents: Optional[tuple] = _typed(_is_int_seq, None)  # None = drawn from the seed
    # per-voter forced scripts, else sampled
    scripts: Optional[dict] = _typed(lambda v: isinstance(v, dict), None)
    tamper: Optional[str] = _typed(_is_str, None)
    sid: str = _typed(_is_str, "election-1")   # a string, as replay reads it

    def __post_init__(self):
        for config_field in fields(self):
            value = getattr(self, config_field.name)
            if not config_field.metadata["check"](value):
                raise ValueError(f"{config_field.name} has the wrong type: {value!r}")
        if not 1 <= self.n_voters <= MAX_PROOF_N:
            raise ValueError(f"n_voters must be in [1, {MAX_PROOF_N}], the most ciphertexts "
                             "the mix's proof verifier reads")
        if not 1 <= self.threshold <= self.n_trustees:
            raise ValueError("need 1 <= threshold <= n_trustees")
        if self.n_trustees > MAX_TRUSTEES:
            raise ValueError(f"n_trustees must be at most {MAX_TRUSTEES}: dealing and "
                             "reconstructing the key take time quadratic in it")
        q = setup(self.group_preset, self.candidate_bound).q
        if self.n_trustees >= q:
            raise ValueError(f"n_trustees must be below the group order q = {q}: "
                             "trustee i holds the key share at x = i mod q")
        corrupted = tuple(sorted(set(self.corrupted)))
        if any(not 1 <= v <= self.n_voters for v in corrupted):
            raise ValueError("corrupted ids must be voter ids")
        object.__setattr__(self, "corrupted", corrupted)
        if corrupted and self.policy is None:
            raise ValueError("corrupted voters need a manipulation policy")
        if corrupted and self.candidate_bound < 2:
            raise ValueError("manipulation needs at least two candidates")
        if corrupted and self.manipulation_offset % self.candidate_bound == 0:
            raise ValueError("manipulation_offset must not be a multiple of "
                             "candidate_bound: it would change no vote")
        if self.intents is not None:
            intents = tuple(self.intents)
            if len(intents) != self.n_voters:
                raise ValueError("need one intent per voter")
            if any(not 0 <= x < self.candidate_bound for x in intents):
                raise ValueError("intent out of candidate range")
            object.__setattr__(self, "intents", intents)
        if self.scripts is not None:
            scripts = {}
            for key, script in self.scripts.items():
                voter_id = _voter_id(key)
                if voter_id is None or not 1 <= voter_id <= self.n_voters:
                    raise ValueError(f"scripts key {key!r:.40} is not a voter id in "
                                     f"[1, {self.n_voters}]")
                if voter_id in scripts:
                    raise ValueError(f"scripts has two scripts for voter {voter_id}")
                try:
                    scripts[voter_id] = validate_pattern(script)
                except BadDistribution as exc:
                    raise ValueError(f"scripts, voter {voter_id}: {exc}") from None
            object.__setattr__(self, "scripts", scripts)
        if self.tamper is not None and self.tamper not in TAMPER_MODES:
            raise ValueError(f"unknown tamper mode {self.tamper!r}")
        if self.tamper == "tamper-plaintext" and self.candidate_bound < 2:
            raise ValueError("tamper-plaintext needs at least two candidates")


# What json.loads raises on text it cannot turn into a value: a syntax
# error, an integer longer than the interpreter converts, or nesting
# deeper than its recursion limit.
JSON_ERRORS = (ValueError, RecursionError)


class ElectionTranscript:
    """Ordered event log plus the manifest that determines it."""

    def __init__(self, manifest: dict):
        self.manifest = dict(manifest)
        self.events: list = []

    def record(self, phase: str, actor: str, kind: str, payload) -> dict:
        event = {"seq": len(self.events) + 1, "phase": phase, "actor": actor,
                 "kind": kind, "payload": payload}
        self.events.append(event)
        return event

    def events_of(self, kind: str) -> list:
        return [e for e in self.events if e["kind"] == kind]

    def to_jsonl(self) -> str:
        dump = lambda obj: json.dumps(obj, sort_keys=True, separators=(",", ":"))
        lines = [dump({"manifest": self.manifest})]
        lines.extend(dump(e) for e in self.events)
        return "\n".join(lines) + "\n"

    @classmethod
    def from_jsonl(cls, text: str) -> "ElectionTranscript":
        # at \n only, as JSON Lines splits: a JSON string may hold U+2028 raw
        lines = [(n, ln) for n, ln in enumerate(text.split("\n"), 1) if ln.strip()]
        if not lines:
            raise ReplayError("empty transcript")
        n, first = lines[0]
        try:
            head = json.loads(first)
        except JSON_ERRORS as exc:
            raise ReplayError(f"line {n}: bad manifest: {exc}") from None
        _check_fields(head, {"manifest": lambda v: isinstance(v, dict)}, f"line {n}")
        transcript = cls(head["manifest"])
        prev_seq = 0
        for n, ln in lines[1:]:
            try:
                event = json.loads(ln)
            except JSON_ERRORS as exc:
                raise ReplayError(f"line {n}: bad event: {exc}") from None
            _check_fields(event, _EVENT_FIELDS, f"line {n}")
            if event["seq"] <= prev_seq:
                raise ReplayError(f"line {n}: 'seq' must rise from event to event")
            prev_seq = event["seq"]
            transcript.events.append(event)
        return transcript


def tally_alg(plaintexts, candidate_bound: Optional[int] = None) -> dict:
    """Histogram of decrypted values; anything outside the candidate
    range lands in the reject bucket."""
    counts: dict[int, int] = {}
    for m in plaintexts:
        m = int(m)
        if m < 0 or (candidate_bound is not None and m >= candidate_bound):
            m = REJECTED_PLAINTEXT
        counts[m] = counts.get(m, 0) + 1
    return dict(sorted(counts.items()))


def voter_vote_loop(script: str, intent: int, pk: PublicKey, device: VotingDevice,
                    checker: AuditDevice, ea_accept) -> list:
    """Run one voter's action script and return its events.

    Each V casts via the device and submits to the authority; each C
    checks the latest token and, on mismatch, complains and stops."""
    validate_pattern(script)
    events = []
    history = ""
    token = None
    for action in script:
        if action == "V":
            ballot, token = device.cast(pk, intent, history)
            _value, manipulated = device.cast_log[ballot.ssid[1]]
            accepted = ea_accept(ballot)
            events.append({"kind": "cast", "ssid": list(ballot.ssid),
                           "manipulated": manipulated, "accepted": accepted})
        else:
            matches, observed = checker.check(token)
            events.append({"kind": "check", "ssid": list(token.ssid),
                           "matches": matches, "observed": observed})
            if not matches:
                events.append({"kind": "complaint", "ssid": list(token.ssid)})
                break
        history += action
    return events


def ea_accept_ballot(sid, registry: CertRegistry, board: BulletinBoard,
                     ballot, transform=None) -> bool:
    """Authority-side ballot intake: certification check, then a post to
    the private board, the only record of ballots.  A rejected ballot
    leaves the board untouched.

    transform, when given, maps the verified ciphertext to what actually
    gets recorded; the honest authority passes None."""
    if not registry.verify(sid, ballot.ssid, cipher_bytes(ballot.c), ballot.sigma):
        return False
    c_posted = ballot.c if transform is None else transform(ballot.c)
    board.priv_post(sid, {"kind": "ballot", "ssid": list(ballot.ssid),
                          "c": [c_posted.c1, c_posted.c2], "sigma": ballot.sigma})
    return True


def proof_to_text(blob: bytes) -> str:
    """A serialized proof as the transcript carries it: base64."""
    return base64.b64encode(blob).decode()


def proof_from_text(text: str) -> Optional[bytes]:
    """Inverse of `proof_to_text`; None for any text it does not return,
    so that each proof has exactly one transcript encoding."""
    try:
        blob = base64.b64decode(text, validate=True)
    except ValueError:      # not base64, or not ASCII
        return None
    return blob if proof_to_text(blob) == text else None


def run_election(config: ElectionConfig) -> ElectionResult:
    params = setup(config.group_preset, config.candidate_bound)
    dist = config.distribution if config.distribution is not None else default_distribution()
    sid = config.sid
    seed = config.seed
    n, k, t = config.n_voters, config.n_trustees, config.threshold

    if config.intents is not None:
        intents = config.intents
    else:
        intents = tuple(rng_for(seed, "intents").scalars(config.candidate_bound, n))

    policy = config.policy
    policy_desc = None
    if policy is not None:
        policy_desc = policy.describe() if hasattr(policy, "describe") else str(policy)
    # every config field, with the JSON form of those that are not JSON values
    manifest = {field.name: getattr(config, field.name) for field in fields(config)}
    manifest.update(
        version=TOOL_VERSION,
        corrupted=list(config.corrupted),
        policy=policy_desc,
        distribution=[[pat, prob] for pat, prob in dist.items()],
        intents=list(intents),
        scripts={str(v): s for v, s in (config.scripts or {}).items()},
    )
    transcript = ElectionTranscript(manifest)
    phase = "preparation"
    record = lambda actor, kind, payload: transcript.record(phase, actor, kind, payload)

    board = BulletinBoard(sid)
    board.observer = lambda name, entry: record(f"{name}-board", f"{name}-post", {"entry": entry})
    registry = CertRegistry()
    kg = KeyGenService(sid, params, t, k, rng_for(seed, "keygen"))
    dec = DecryptionService(board, kg)

    # Preparation: trustees report in, the key comes up, the authority
    # publishes it.
    for trustee_id in range(1, k + 1):
        kg.ready(trustee_id)
        record(f"trustee-{trustee_id}", "ready", {})
    pk = kg.pubkey()
    board.pub_post(sid, {"kind": "pubkey", "h": pk.h})

    forge = lambda c: Ciphertext(c.c1, c.c2 * params.g % params.p)

    def ea_accept(ballot) -> bool:
        # forge-signature records a modified ciphertext under the original
        # certification handle of the first ballot posted to the private board:
        # voter 1 votes first and every script opens with a V, so ssid (1, 1)
        forged = config.tamper == "forge-signature" and ballot.ssid == (1, 1)
        return ea_accept_ballot(sid, registry, board, ballot,
                                transform=forge if forged else None)

    # Voting: each voter runs their script to completion, in id order.
    phase = "voting"
    record("EA", "phase-open", {})
    checker = AuditDevice(board, pk)
    for i in range(1, n + 1):
        device = VotingDevice(sid, i, registry, rng_for(seed, "vsd", i),
                              policy=policy if i in config.corrupted else None,
                              offset=config.manipulation_offset)
        if config.scripts and i in config.scripts:
            script = config.scripts[i]
        else:
            script = dist.sample(rng_for(seed, "vemu", i))
        record(f"voter-{i}", "script", {"script": script})
        events = voter_vote_loop(script, intents[i - 1], pk, device, checker, ea_accept)
        for ev in events:
            record(f"voter-{i}", ev["kind"],
                   {key: val for key, val in ev.items() if key != "kind"})

    # Tally: close, mix each voter's last ballot on the private board with
    # proof, threshold-decrypt, count.  Every voter has a ballot there: each
    # script opens with a V, and every device certifies what it submits.
    phase = "tally"
    ballots = [e for e in board.snapshot()[1] if e["kind"] == "ballot"]
    mix_inputs = [Ciphertext(*c) for c in last_ballots(ballots, n)]
    if config.tamper == "mix-non-last":
        # a device numbers its voter's casts from 1, and every cast is on the board
        first = {e["ssid"][0]: Ciphertext(*e["c"]) for e in ballots if e["ssid"][1] == 1}
        revoters = sorted({e["ssid"][0] for e in ballots if e["ssid"][1] == 2})
        if not revoters:
            raise CeremonyError("mix-non-last tamper needs a voter with two ballots")
        # prefer a voter whose first and last ballots differ as ciphertexts;
        # in the tiny group they can collide, in which case shifting the
        # first ballot still yields a valid encryption that is not the
        # recorded last one
        revoter = next((i for i in revoters if first[i] != mix_inputs[i - 1]), revoters[0])
        substituted = first[revoter]
        if substituted == mix_inputs[revoter - 1]:
            substituted = rerandomize(pk, substituted, 1)
        mix_inputs[revoter - 1] = substituted

    inputs = tuple(mix_inputs)
    mix_rng = rng_for(seed, "ea.mix")
    perm = list(range(n))
    mix_rng.shuffle(perm)
    rands = tuple(mix_rng.scalars(params.q, n))
    outputs = tuple(rerandomize(pk, inputs[perm[i]], rands[i]) for i in range(n))
    statement = ShuffleStatement(pk=pk, inputs=inputs, outputs=outputs)
    proof = prove_shuffle(statement, ShuffleWitness(perm=tuple(perm), rands=rands),
                          rng_for(seed, "ea.proof"))

    posted_outputs = list(outputs)
    if config.tamper == "tamper-shuffle-output":
        trng = rng_for(seed, "tamper")
        while True:
            fake = encrypt(pk, trng.below(config.candidate_bound), trng.below(params.q))
            if fake != outputs[0]:
                break
        posted_outputs[0] = fake
    board.priv_post(sid, {
        "kind": "shuffle",
        "inputs": [[c.c1, c.c2] for c in inputs],
        "outputs": [[c.c1, c.c2] for c in posted_outputs],
        "proof": proof_to_text(serialize_proof(proof, params)),
    })
    record("EA", "mix", {"ballots": n})

    for trustee_id in range(1, k + 1):
        dec.submit_key(trustee_id)
        record(f"trustee-{trustee_id}", "key-submit", {})
    values = dec.decrypt_and_post()
    if config.tamper == "tamper-plaintext":
        # the authority re-posts the list with its first value moved
        values = [(values[0] + 1) % config.candidate_bound, *values[1:]]
        board.pub_post(sid, {"kind": "plaintexts", "values": values})
    tally = tally_alg(values, config.candidate_bound)
    board.pub_post(sid, {"kind": "tally", "counts": {str(c): v for c, v in tally.items()}})

    # Audit: publish the audit material, then judge the run by the same
    # checks a replay of its transcript makes.
    phase = "audit"
    record("simulator", "registry-dump", {"rows": registry.dump()})
    record("simulator", "election-key", {"sk": dec.secret_key.sk})
    verdict = _audit(transcript)
    record("auditor", "verdict", {"valid": verdict.valid, "reason": verdict.reason})
    return ElectionResult(transcript, tally, verdict)


def _is_pair(value) -> bool:
    return type(value) is list and len(value) == 2 and all(map(_is_int, value))


def _is_list_of(check):
    return lambda value: type(value) is list and all(map(check, value))


def _is_registry_row(row) -> bool:
    # [ssid, certified message, handles]; messages are ASCII by construction
    return (type(row) is list and len(row) == 3 and _is_pair(row[0]) and _is_str(row[1])
            and row[1].isascii() and _is_list_of(_is_str)(row[2]))


# The fields the replay reads, with the shape each must have: from each
# event, whose `seq` must also rise, from the manifest, from each kind of
# board entry, and from the last event of each kind of audit material.
_EVENT_FIELDS = {"seq": _is_int, "phase": lambda v: True, "actor": lambda v: True,
                 "kind": _is_str, "payload": lambda v: isinstance(v, dict)}
_MANIFEST_FIELDS = {"sid": _is_str, "n_voters": lambda v: _is_int(v) and v >= 1,
                    "candidate_bound": _is_int, "group_preset": _is_str}
_BOARD_POST_FIELDS = {"entry": lambda v: isinstance(v, dict) and _is_str(v.get("kind"))}
_ENTRY_FIELDS = {
    "pubkey": {"h": _is_int},
    "ballot": {"ssid": _is_pair, "c": _is_pair, "sigma": _is_str},
    "shuffle": {"inputs": _is_list_of(_is_pair), "outputs": _is_list_of(_is_pair),
                "proof": _is_str},
    "plaintexts": {"values": _is_list_of(_is_int)},
    "tally": {"counts": lambda v: type(v) is dict
              and all(_is_str(k) and _is_int(c) for k, c in v.items())},
}
_MATERIAL_FIELDS = {
    "registry-dump": {"rows": _is_list_of(_is_registry_row)},
    "election-key": {"sk": _is_int},
    "verdict": {"valid": lambda v: type(v) is bool, "reason": lambda v: v is None or _is_str(v)},
}


def _check_fields(obj, fields: dict, where: str) -> None:
    for key, check in fields.items():
        if not isinstance(obj, dict) or key not in obj or not check(obj[key]):
            raise ReplayError(f"{where}: missing or malformed {key!r}")


def _replay_board(transcript: ElectionTranscript):
    """Every board post as (board, entry), board "pub" or "priv", in event
    order: a post's position is its event's seq, which `from_jsonl`
    checks.  Any other field of a post is ignored."""
    posts = []
    for e in transcript.events:
        if e["kind"] not in ("pub-post", "priv-post"):
            continue
        _check_fields(e["payload"], _BOARD_POST_FIELDS, f"event {e['seq']}")
        entry = e["payload"]["entry"]
        _check_fields(entry, _ENTRY_FIELDS.get(entry["kind"], {}),
                      f"event {e['seq']} {entry['kind']} entry")
        posts.append((e["kind"].removesuffix("-post"), entry))
    return posts


def _material(transcript: ElectionTranscript, kind: str) -> dict:
    """Payload of the last event of one kind of audit material."""
    events = transcript.events_of(kind)
    if not events:
        raise ReplayError(f"transcript is missing audit material: no {kind} event")
    payload = events[-1]["payload"]
    _check_fields(payload, _MATERIAL_FIELDS[kind], f"{kind} event")
    return payload


def _audit(transcript: ElectionTranscript) -> AuditVerdict:
    """The auditor's checks over a transcript's events, in fixed order;
    the first failure names the verdict's reason.  Raises ReplayError,
    naming the field, when the transcript lacks the pieces the audit
    needs or one of them has the wrong type or shape."""
    man = transcript.manifest
    _check_fields(man, _MANIFEST_FIELDS, "manifest")
    try:
        params = setup(man["group_preset"], man["candidate_bound"])
    except ValueError as exc:   # unknown preset, or a bound the group cannot encode
        raise ReplayError(f"manifest group_preset/candidate_bound: {exc}") from None
    sid, n_voters = man["sid"], man["n_voters"]

    posts = _replay_board(transcript)
    pub_entries = [e for board, e in posts if board == "pub"]
    priv_entries = [e for board, e in posts if board == "priv"]
    keys = [e for e in pub_entries if e["kind"] == "pubkey"]
    if not keys:
        raise ReplayError("no public key on the recorded board")
    registry = CertRegistry.from_dump(sid, _material(transcript, "registry-dump")["rows"])
    sk_value = _material(transcript, "election-key")["sk"]

    # the ballots are cast under one key, posted before the first of them
    first = next(e["kind"] for board, e in posts
                 if (board, e["kind"]) in (("pub", "pubkey"), ("priv", "ballot")))
    if len(keys) > 1 or first != "pubkey":
        return AuditVerdict(False, "key")
    pk = PublicKey(params, keys[0]["h"])

    ballots = [e for e in priv_entries if e["kind"] == "ballot"]
    for e in ballots:
        ct = Ciphertext(*e["c"])
        if not registry.verify(sid, tuple(e["ssid"]), cipher_bytes(ct), e["sigma"]):
            return AuditVerdict(False, "bad-signature")

    shuffle_entry = latest_entry(priv_entries, "shuffle")
    if shuffle_entry is None:
        return AuditVerdict(False, "shuffle-proof")

    inputs, outputs = shuffle_entry["inputs"], shuffle_entry["outputs"]
    if len(inputs) != n_voters or last_ballots(ballots, n_voters) != inputs:
        return AuditVerdict(False, "last-ballot-mismatch")

    if len(outputs) != n_voters:
        return AuditVerdict(False, "shuffle-proof")
    statement = ShuffleStatement(pk=pk, inputs=inputs, outputs=outputs)
    proof_blob = proof_from_text(shuffle_entry["proof"])
    if proof_blob is None:
        return AuditVerdict(False, "shuffle-proof")
    equations = shuffle_equations(statement, proof_blob)
    if equations is None:
        return AuditVerdict(False, "shuffle-proof")

    # shuffle_equations has found h and every output in the group.  The
    # shuffle's and the plaintexts' equations are checked as one weighted
    # product; only if that fails, or the plaintexts state none, is the
    # shuffle checked alone, to tell a false proof from false plaintexts.
    posted = latest_entry(pub_entries, "plaintexts")
    plain = None if posted is None else plaintext_equations(
        SecretKey(params, sk_value), pk.h, outputs, posted["values"])
    if plain is None or not products_equal(params, chain(equations, plain)):
        if not verify_shuffle(statement, proof_blob):
            return AuditVerdict(False, "shuffle-proof")
        return AuditVerdict(False, "decryption")
    tally = latest_entry(pub_entries, "tally")
    counts = tally_alg(posted["values"], params.candidate_bound)
    if tally is None or tally["counts"] != {str(c): v for c, v in counts.items()}:
        return AuditVerdict(False, "tally")
    if transcript.events_of("complaint"):
        return AuditVerdict(False, "complaint")
    return AuditVerdict(True, None)


def audit_transcript(transcript: ElectionTranscript):
    """Re-run the audit from a stored transcript.

    Returns (recomputed verdict, recorded verdict); raises ReplayError,
    naming the field, when the transcript lacks the pieces the audit
    needs or one of them has the wrong type or shape."""
    recomputed = _audit(transcript)
    recorded = _material(transcript, "verdict")
    return recomputed, AuditVerdict(recorded["valid"], recorded["reason"])
