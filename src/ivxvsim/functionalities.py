"""Trusted in-process components the protocol runs against: bulletin
board, certification registry, key generation, threshold decryption,
and the voter-side devices.

Each is a single-threaded object addressed by an election identifier;
"ideal" means the component itself is incorruptible, while its callers
(devices, authority) may misbehave.  The equations that posted
plaintexts must satisfy (`plaintext_equations`) are stated here, for the
auditor to check alone or in one product with a shuffle's.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional

from .elgamal import (Ciphertext, NotACandidate, PublicKey, RandomnessMismatch,
                      SecretKey, decrypt, encrypt, keygen, trapdoor_decrypt)
from .groups import batch_weights, multi_exp, products_equal
from .shamir import SecretShare, deal, reconstruct

# Tally marker for a shuffled ciphertext that decrypts outside the
# candidate range.
REJECTED_PLAINTEXT = -1


class NotReady(Exception):
    """Public key queried before every trustee signaled ready."""


class ThresholdNotMet(Exception):
    """Decryption triggered with too few trustee key submissions."""


class MissingShuffle(Exception):
    """Decryption triggered before any shuffled list was posted."""


class UnknownSsid(Exception):
    """Check against a ballot submission that was never recorded."""


def cipher_bytes(c: Ciphertext) -> bytes:
    """Canonical byte encoding of a ciphertext, the message that gets
    certified."""
    return b"%d|%d" % (c.c1, c.c2)


class Ballot(NamedTuple):
    ssid: tuple          # (voter_id, nonce)
    c: Ciphertext
    sigma: str


class VerificationToken(NamedTuple):
    ssid: tuple
    r: int               # encryption randomness, the trapdoor
    intent: int          # candidate the device claims it encrypted


def latest_entry(entries, kind: str, ssid=None):
    """The last board entry of the given kind among entries in board
    order, restricted to one submission when ssid is given; None if there
    is none.  Entries that are not objects are skipped."""
    for entry in reversed(entries):
        if (isinstance(entry, dict) and entry.get("kind") == kind
                and (ssid is None or tuple(entry["ssid"]) == tuple(ssid))):
            return entry
    return None


def last_ballots(ballot_entries, n_voters: int) -> list:
    """Each voter's last recorded [c1, c2] among ballot entries in board
    order, for voter ids 1..n_voters in id order; None for a voter with
    no ballot."""
    last = {}
    for entry in ballot_entries:   # a re-vote overwrites the voter's earlier ballot
        last[entry["ssid"][0]] = entry["c"]
    return [last.get(i) for i in range(1, n_voters + 1)]


def decrypt_all(sk: SecretKey, pairs) -> list[int]:
    """Plaintexts of a list of [c1, c2] ciphertexts, REJECTED_PLAINTEXT
    for each that decrypts outside the candidate range."""
    out = []
    for c1, c2 in pairs:
        try:
            out.append(decrypt(sk, Ciphertext(c1, c2)))
        except NotACandidate:
            out.append(REJECTED_PLAINTEXT)
    return out


def plaintext_equations(sk: SecretKey, h: int, pairs, values):
    """The equations stating that g^sk = h and that `values` is what
    decrypt_all(sk, pairs) returns, for `groups.products_equal`; None
    when `values` has the wrong length or a value outside the candidate
    range, or marks REJECTED_PLAINTEXT a ciphertext that decrypts to a
    candidate.  Each value m in the candidate range states
    c1^sk * g^m = c2 for its ciphertext, and the key states the same for
    (g, h) and m = 0.  h and every c1 and c2 must be in the order-q
    subgroup, as an accepted shuffle proof establishes.

    In a large group the equations are stated as one, weighted as
    `products_equal` would weigh them, w_0 for the key and w_i for the
    values: X^sk * g^(sum w_i m_i) * h^-w_0 * prod c2_i^-w_i = 1, where
    X = g^w_0 * prod c1_i^w_i is one product over the weights.  Its one
    full-size exponent, sk on X, shares the squaring chain of whatever
    product checks it, and g, h and the c2_i are bases a shuffle's
    equations already carry; stated one by one, every c1 would take a
    full-size w_i * sk.  A false key or list passes with probability at
    most 2^-128.  A small group states each equation."""
    params = sk.params
    if len(values) != len(pairs):
        return None
    g, key = params.g, sk.sk % params.q
    stated = [(g, h, 0)]    # (c1, c2, m): the key, then each value in the candidate range
    for (c1, c2), m in zip(pairs, values):
        if m == REJECTED_PLAINTEXT:
            if decrypt_all(sk, [(c1, c2)]) != [REJECTED_PLAINTEXT]:
                return None
        elif 0 <= m < params.candidate_bound:
            stated.append((c1, c2, m))
        else:
            return None
    each = [((c1, g), (key, m), c2) for c1, c2, m in stated]
    if not params.large:
        return each
    weights = batch_weights(params, each)
    x = multi_exp(params, [c1 for c1, _, _ in stated], weights)
    bases = (x, g, *[c2 for _, c2, _ in stated])
    exponents = (key, sum(w * m for w, (_, _, m) in zip(weights, stated)), *[-w for w in weights])
    return [(bases, exponents, 1)]


def plaintexts_match(sk: SecretKey, h: int, pairs, values) -> bool:
    """Whether g^sk = h and `values` is what decrypt_all(sk, pairs)
    returns: `plaintext_equations` checked by `groups.products_equal`."""
    equations = plaintext_equations(sk, h, pairs, values)
    return equations is not None and products_equal(sk.params, equations)


class BulletinBoard:
    """Append-only two-part board: a public part, and a private part meant
    for the authority and the auditor.  The board keeps no numbering of
    its own: the transcript the observer writes orders its posts."""

    def __init__(self, sid):
        self.sid = sid
        self._pub: list = []
        self._priv: list = []
        # optional callback(board, entry) for transcript recording
        self.observer: Optional[Callable] = None

    def _check_sid(self, sid):
        if sid != self.sid:
            raise ValueError(f"unknown sid {sid!r}")

    def _append(self, store: list, name: str, entry) -> None:
        store.append(entry)
        if self.observer is not None:
            self.observer(name, entry)

    def pub_post(self, sid, entry) -> None:
        self._check_sid(sid)
        self._append(self._pub, "pub", entry)

    def priv_post(self, sid, entry) -> None:
        self._check_sid(sid)
        self._append(self._priv, "priv", entry)

    def snapshot(self):
        """(pub, priv), each a tuple of entries in posting order: how the
        trusted components read the board."""
        return tuple(self._pub), tuple(self._priv)


class CertRegistry:
    """Ideal certification: a handle verifies iff it was issued for
    exactly that (sid, ssid, message) tuple.  No key material exists to
    steal, so forgery is impossible by construction."""

    def __init__(self):
        self._issued: dict[tuple, set] = {}

    def sign(self, sid, ssid, message: bytes, rng, issuer) -> str:
        if issuer != ssid[0]:
            raise PermissionError(f"{issuer!r} cannot certify for {ssid[0]!r}")
        sigma = f"{rng.bits(128):032x}"
        self._issued.setdefault((sid, tuple(ssid), bytes(message)), set()).add(sigma)
        return sigma

    def verify(self, sid, ssid, message: bytes, sigma) -> int:
        return int(sigma in self._issued.get((sid, tuple(ssid), bytes(message)), ()))

    def dump(self) -> list:
        """Issued tuples in a JSON-friendly shape, for transcripts."""
        return sorted(
            [list(ssid), message.decode(), sorted(sigmas)]
            for (_sid, ssid, message), sigmas in self._issued.items()
        )

    @classmethod
    def from_dump(cls, sid, rows) -> "CertRegistry":
        reg = cls()
        for ssid, message, sigmas in rows:
            key = (sid, tuple(ssid), message.encode())
            reg._issued[key] = set(sigmas)
        return reg


class KeyGenService:
    """Generates the election key pair once all k trustees report in,
    and deals the secret key into (t, k) shares, one per trustee."""

    def __init__(self, sid, params, t: int, k: int, rng):
        if not 1 <= t <= k:
            raise ValueError("need 1 <= t <= k")
        self.sid = sid
        self.params = params
        self.t = t
        self.k = k
        self._rng = rng
        self._ready: set = set()
        self._pk: Optional[PublicKey] = None
        self._shares: dict[int, SecretShare] = {}

    def ready(self, trustee_id: int) -> None:
        if not 1 <= trustee_id <= self.k:
            raise ValueError(f"unknown trustee {trustee_id}")
        self._ready.add(trustee_id)

    def pubkey(self) -> PublicKey:
        if len(self._ready) < self.k:
            raise NotReady(f"not-ready: {len(self._ready)} of {self.k} trustees")
        if self._pk is None:
            pk, sk = keygen(self.params, self._rng)
            shares = deal(sk.sk, self.t, self.k, self.params.q, self._rng)
            self._pk = pk
            self._shares = {s.index: s for s in shares}
        return self._pk

    def share_for(self, trustee_id: int) -> SecretShare:
        self.pubkey()  # ensure dealt
        return self._shares[trustee_id]


class DecryptionService:
    """Threshold decryption over the shuffled list on the board.

    Trustees submit their key shares; once the dealing's threshold t are
    in, the service reconstructs the secret from the first t submitted,
    decrypts the posted shuffled ciphertexts, and publishes the plaintexts
    under the dealing's sid."""

    def __init__(self, board: BulletinBoard, keygen_service: KeyGenService):
        self.board = board
        self.keygen_service = keygen_service
        self._submitted: dict[int, SecretShare] = {}
        self.secret_key: Optional[SecretKey] = None   # set by decrypt_and_post

    def submit_key(self, trustee_id: int) -> None:
        self._submitted[trustee_id] = self.keygen_service.share_for(trustee_id)

    def decrypt_and_post(self) -> list[int]:
        """Decrypt the latest shuffled list, post the plaintexts and
        return the values posted."""
        dealing = self.keygen_service
        if len(self._submitted) < dealing.t:
            raise ThresholdNotMet(f"threshold-not-met: {len(self._submitted)} < {dealing.t}")
        entry = latest_entry(self.board.snapshot()[1], "shuffle")
        if entry is None:
            raise MissingShuffle("missing-shuffle: no shuffled list on the board")
        shares = list(self._submitted.values())[: dealing.t]
        params = dealing.params
        self.secret_key = SecretKey(params, reconstruct(shares, dealing.t, params.q))
        values = decrypt_all(self.secret_key, entry["outputs"])
        self.board.pub_post(dealing.sid, {"kind": "plaintexts", "values": values})
        return values


class VotingDevice:
    """The voter's casting device.  Honest devices encrypt the voter's
    intent; a corrupted one consults its policy on the voter's history
    and may encrypt a shifted candidate instead, while the token it
    hands back still claims the intent."""

    def __init__(self, sid, voter_id, registry: CertRegistry, rng,
                 policy=None, offset: int = 1):
        self.sid = sid
        self.voter_id = voter_id
        self.registry = registry
        self.rng = rng
        self.policy = policy
        self.offset = offset
        self._nonce = 0
        # bookkeeping for reports: nonce -> (encrypted value, manipulated?)
        self.cast_log: dict[int, tuple[int, bool]] = {}

    def cast(self, pk: PublicKey, intent: int, history: str = ""):
        self._nonce += 1
        ssid = (self.voter_id, self._nonce)
        manipulate = self.policy is not None and self.policy.decide(history)
        value = (intent + self.offset) % pk.params.candidate_bound if manipulate else intent
        r = self.rng.below(pk.params.q)
        c = encrypt(pk, value, r)
        sigma = self.registry.sign(self.sid, ssid, cipher_bytes(c), self.rng,
                                   issuer=self.voter_id)
        self.cast_log[self._nonce] = (value, manipulate)
        return Ballot(ssid, c, sigma), VerificationToken(ssid, r, intent)


class AuditDevice:
    """The voter's checking device: fetches the ciphertext the board
    actually recorded for the token's submission (never trusting the
    casting device) and opens it with the token's randomness."""

    def __init__(self, board: BulletinBoard, pk: PublicKey):
        self.board = board
        self.pk = pk

    def check(self, token: VerificationToken):
        entry = latest_entry(self.board.snapshot()[1], "ballot", token.ssid)
        if entry is None:
            raise UnknownSsid(f"unknown-ssid: {token.ssid}")
        try:
            observed = trapdoor_decrypt(self.pk, Ciphertext(*entry["c"]), token.r)
        except (RandomnessMismatch, NotACandidate):
            return 0, None
        return int(observed == token.intent), observed

