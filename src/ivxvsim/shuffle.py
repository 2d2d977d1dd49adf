"""Non-interactive proof that one ciphertext list is a permuted
re-randomization of another.

The argument commits to a permutation matrix and proves, against a
hash-derived challenge vector u, that the committed matrix maps u to a
hidden vector u~ with the same product (a chain of Pedersen-style
commitments carries the running product), and that the same hidden u~
links the aggregated input and output ciphertexts.  All verifier
challenges are replaced by hash-to-scalar over a canonical transcript
serialization.

Soundness of a single repetition degrades with the group order, so the
whole argument is repeated `security_rounds(q)` times with independent
challenges; the 2048-bit preset needs one round, the toy group twenty.

Commitment generators are derived by hashing into the group, so no
trusted setup is involved.

Every element and scalar is encoded big-endian at one width, the byte
length of p, for the statement digest, both challenges and the proof.
In each repetition the n entries of u are cut from one SHAKE-256 stream
over `u|statement digest|round|perm_commits` (domain
`ivxvsim/shuffle-v2`), so hashing is linear in n.  A proof (`IVXVSHF2`)
is the magic, n and the repetition count (4 bytes each), then each
repetition's 5n + 9 values in `ProofRound` field order, so its header
and the group fix its length.  Proofs and transcripts of the
length-prefixed v1 format no longer verify.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice

from .elgamal import Ciphertext, PublicKey, rerandomize
from .groups import GroupParams, hash_to_element

FS_DOMAIN = b"ivxvsim/shuffle-v2"
PROOF_MAGIC = b"IVXVSHF2"

_HEADER_LEN = len(PROOF_MAGIC) + 8   # magic, n, repetitions

# Target grinding resistance of ~2^80 across repetitions.
_ROUND_TARGET_BITS = 80


class BadWitness(ValueError):
    """Witness does not reproduce the statement's outputs from its inputs."""


def security_rounds(q: int) -> int:
    """Number of parallel repetitions needed for challenge space q."""
    return max(1, -(-_ROUND_TARGET_BITS // q.bit_length()))


def _fs_scalars(transcript: bytes, q: int, count: int, tag: bytes = FS_DOMAIN) -> list[int]:
    need = (q.bit_length() + 128 + 7) // 8
    stream = hashlib.shake_256(tag + b"|" + transcript).digest(count * need)
    return [int.from_bytes(stream[i : i + need], "big") % q for i in range(0, count * need, need)]


def fs_challenge(transcript: bytes, q: int, tag: bytes = FS_DOMAIN) -> int:
    """Deterministic, domain-separated hash of a transcript to a scalar mod q.

    The SHAKE-256 output is read to 128 bits beyond the order, keeping
    the reduction bias negligible.
    """
    return _fs_scalars(transcript, q, 1, tag)[0]


def _width(p: int) -> int:
    return (p.bit_length() + 7) // 8


def _encode(values, width: int) -> bytes:
    """Each value big-endian in exactly `width` bytes, no separators."""
    return b"".join([x.to_bytes(width, "big") for x in values])


def _decode(data: bytes, width: int) -> list[int]:
    return [int.from_bytes(data[i : i + width], "big") for i in range(0, len(data), width)]


@dataclass(frozen=True)
class ShuffleStatement:
    pk: PublicKey
    inputs: tuple[Ciphertext, ...]
    outputs: tuple[Ciphertext, ...]

    def __post_init__(self):
        object.__setattr__(self, "inputs", tuple(Ciphertext(*c) for c in self.inputs))
        object.__setattr__(self, "outputs", tuple(Ciphertext(*c) for c in self.outputs))
        if not self.inputs or len(self.inputs) != len(self.outputs):
            raise ValueError("statement needs equal, non-empty input and output lists")

    def to_bytes(self) -> bytes:
        params = self.pk.params
        values = (params.p, params.q, params.g, self.pk.h,
                  *(x for ct in self.inputs + self.outputs for x in ct))
        return b"stmt" + len(self.inputs).to_bytes(4, "big") + _encode(values, _width(params.p))


@dataclass(frozen=True)
class ShuffleWitness:
    perm: tuple[int, ...]     # outputs[i] re-randomizes inputs[perm[i]]
    rands: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "perm", tuple(self.perm))
        object.__setattr__(self, "rands", tuple(self.rands))
        if sorted(self.perm) != list(range(len(self.perm))):
            raise ValueError("perm is not a permutation of range(n)")
        if len(self.rands) != len(self.perm):
            raise ValueError("rands length must match perm length")


@dataclass(frozen=True)
class ProofRound:
    perm_commits: tuple[int, ...]
    chain_commits: tuple[int, ...]
    t1: int
    t2: int
    t3: int
    t4a: int
    t4b: int
    t_hat: tuple[int, ...]
    s_bar: int
    s_dot: int
    s_tld: int
    s_r: int
    s_hat: tuple[int, ...]
    s_prm: tuple[int, ...]

    def values(self) -> tuple[int, ...]:
        """All 5n + 9 values, in field order: the proof format's order."""
        return (*self.perm_commits, *self.chain_commits, self.t1, self.t2, self.t3,
                self.t4a, self.t4b, *self.t_hat, self.s_bar, self.s_dot, self.s_tld,
                self.s_r, *self.s_hat, *self.s_prm)


@dataclass(frozen=True)
class ShuffleProof:
    n: int
    rounds: tuple[ProofRound, ...]


@lru_cache(maxsize=None)
def _generators(p: int, q: int, g: int, n: int) -> tuple[int, tuple[int, ...]]:
    params = GroupParams(p=p, q=q, g=g, candidate_bound=1)
    base = hash_to_element(params, b"commit-base", 0)
    gens = tuple(hash_to_element(params, b"commit-gen", i) for i in range(n))
    return base, gens


def _challenge_vector(stmt_digest: bytes, rnd: int, perm_bytes: bytes, n: int, q: int) -> list[int]:
    """The n entries of u, from the encoded permutation commitments."""
    return _fs_scalars(b"u|" + stmt_digest + rnd.to_bytes(4, "big") + perm_bytes, q, n)


def _round_gamma(stmt_digest: bytes, rnd: int, perm_bytes: bytes, rest, width: int, q: int) -> int:
    """gamma over perm_commits (as encoded for u), then `rest`: chain, t1..t4b, t_hat."""
    return fs_challenge(b"gamma|" + stmt_digest + rnd.to_bytes(4, "big") + perm_bytes
                        + _encode(rest, width), q)


def prove_shuffle(statement: ShuffleStatement, witness: ShuffleWitness, rng) -> ShuffleProof:
    """Produce a proof accepted by verify_shuffle; O(n) exponentiations
    per repetition."""
    pk = statement.pk
    params = pk.params
    p, q, g, y = params.p, params.q, params.g, pk.h
    n = len(statement.inputs)
    perm, rands = witness.perm, witness.rands
    if len(perm) != n:
        raise ValueError("witness length does not match statement")
    for i in range(n):
        if rerandomize(pk, statement.inputs[perm[i]], rands[i]) != statement.outputs[i]:
            raise BadWitness(f"output {i} is not a re-randomization of input {perm[i]}")

    base, gens = _generators(p, q, g, n)
    width = _width(p)
    stmt_digest = hashlib.sha256(statement.to_bytes()).digest()
    rounds = []
    for rnd in range(security_rounds(q)):
        rho = [rng.randrange(q) for _ in range(n)]
        commits = [0] * n
        for i in range(n):
            commits[perm[i]] = pow(g, rho[perm[i]], p) * gens[i] % p
        perm_bytes = _encode(commits, width)
        u = _challenge_vector(stmt_digest, rnd, perm_bytes, n, q)
        u_tld = [u[perm[i]] for i in range(n)]

        rho_hat = [rng.randrange(q) for _ in range(n)]
        chain = []
        prev = base
        for i in range(n):
            prev = pow(g, rho_hat[i], p) * pow(prev, u_tld[i], p) % p
            chain.append(prev)

        rho_bar = sum(rho) % q
        rho_dot = 0
        for i in range(n):
            rho_dot = (rho_hat[i] + u_tld[i] * rho_dot) % q
        rho_tld = sum(r_j * u_j for r_j, u_j in zip(rho, u)) % q
        r_tld = sum(rands[i] * u_tld[i] for i in range(n)) % q

        w_bar, w_dot, w_tld, w_r = (rng.randrange(q) for _ in range(4))
        w_hat = [rng.randrange(q) for _ in range(n)]
        w_prm = [rng.randrange(q) for _ in range(n)]

        t1 = pow(g, w_bar, p)
        t2 = pow(g, w_dot, p)
        t3 = pow(g, w_tld, p)
        t4a = pow(g, -w_r % q, p)
        t4b = pow(y, -w_r % q, p)
        for i in range(n):
            t3 = t3 * pow(gens[i], w_prm[i], p) % p
            t4a = t4a * pow(statement.outputs[i].c1, w_prm[i], p) % p
            t4b = t4b * pow(statement.outputs[i].c2, w_prm[i], p) % p
        t_hat = []
        prev = base
        for i in range(n):
            t_hat.append(pow(g, w_hat[i], p) * pow(prev, w_prm[i], p) % p)
            prev = chain[i]

        gamma = _round_gamma(stmt_digest, rnd, perm_bytes,
                             (*chain, t1, t2, t3, t4a, t4b, *t_hat), width, q)

        rounds.append(ProofRound(
            perm_commits=tuple(commits),
            chain_commits=tuple(chain),
            t1=t1, t2=t2, t3=t3, t4a=t4a, t4b=t4b, t_hat=tuple(t_hat),
            s_bar=(w_bar + gamma * rho_bar) % q,
            s_dot=(w_dot + gamma * rho_dot) % q,
            s_tld=(w_tld + gamma * rho_tld) % q,
            s_r=(w_r + gamma * r_tld) % q,
            s_hat=tuple((w_hat[i] + gamma * rho_hat[i]) % q for i in range(n)),
            s_prm=tuple((w_prm[i] + gamma * u_tld[i]) % q for i in range(n)),
        ))
    return ShuffleProof(n=n, rounds=tuple(rounds))


def _verify_round(statement: ShuffleStatement, stmt_digest: bytes, rnd: int, pr: ProofRound) -> bool:
    pk = statement.pk
    params = pk.params
    p, q, g, y = params.p, params.q, params.g, pk.h
    n = len(statement.inputs)
    base, gens = _generators(p, q, g, n)

    if not (len(pr.perm_commits) == len(pr.chain_commits) == len(pr.t_hat)
            == len(pr.s_hat) == len(pr.s_prm) == n):
        return False
    elements = (*pr.perm_commits, *pr.chain_commits, pr.t1, pr.t2, pr.t3, pr.t4a, pr.t4b, *pr.t_hat)
    if not all(params.is_element(x) for x in elements):
        return False
    if not all(0 <= s < q for s in (pr.s_bar, pr.s_dot, pr.s_tld, pr.s_r, *pr.s_hat, *pr.s_prm)):
        return False

    width = _width(p)
    perm_bytes = _encode(pr.perm_commits, width)
    u = _challenge_vector(stmt_digest, rnd, perm_bytes, n, q)
    gamma = _round_gamma(stmt_digest, rnd, perm_bytes,
                         (*pr.chain_commits, pr.t1, pr.t2, pr.t3, pr.t4a, pr.t4b, *pr.t_hat),
                         width, q)

    prod_u = 1
    for u_j in u:
        prod_u = prod_u * u_j % q

    c_bar = 1
    for c_j in pr.perm_commits:
        c_bar = c_bar * c_j % p
    for h_j in gens:
        c_bar = c_bar * pow(h_j, -1, p) % p
    if pow(g, pr.s_bar, p) != pr.t1 * pow(c_bar, gamma, p) % p:
        return False

    c_dot = pr.chain_commits[-1] * pow(pow(base, prod_u, p), -1, p) % p
    if pow(g, pr.s_dot, p) != pr.t2 * pow(c_dot, gamma, p) % p:
        return False

    c_tld = 1
    for c_j, u_j in zip(pr.perm_commits, u):
        c_tld = c_tld * pow(c_j, u_j, p) % p
    lhs = pow(g, pr.s_tld, p)
    for h_i, s_i in zip(gens, pr.s_prm):
        lhs = lhs * pow(h_i, s_i, p) % p
    if lhs != pr.t3 * pow(c_tld, gamma, p) % p:
        return False

    agg_a = agg_b = 1
    for ct, u_j in zip(statement.inputs, u):
        agg_a = agg_a * pow(ct.c1, u_j, p) % p
        agg_b = agg_b * pow(ct.c2, u_j, p) % p
    lhs_a = pow(g, -pr.s_r % q, p)
    lhs_b = pow(y, -pr.s_r % q, p)
    for ct, s_i in zip(statement.outputs, pr.s_prm):
        lhs_a = lhs_a * pow(ct.c1, s_i, p) % p
        lhs_b = lhs_b * pow(ct.c2, s_i, p) % p
    if lhs_a != pr.t4a * pow(agg_a, gamma, p) % p:
        return False
    if lhs_b != pr.t4b * pow(agg_b, gamma, p) % p:
        return False

    prev = base
    for i in range(n):
        lhs = pow(g, pr.s_hat[i], p) * pow(prev, pr.s_prm[i], p) % p
        if lhs != pr.t_hat[i] * pow(pr.chain_commits[i], gamma, p) % p:
            return False
        prev = pr.chain_commits[i]
    return True


def verify_shuffle(statement: ShuffleStatement, proof) -> bool:
    """Check a proof against a statement.  Accepts either a ShuffleProof
    or its byte serialization; anything malformed is a reject, not an
    error."""
    if isinstance(proof, (bytes, bytearray)):
        try:
            proof = deserialize_proof(bytes(proof), statement.pk.params)
        except ValueError:
            return False
    params = statement.pk.params
    n = len(statement.inputs)
    if proof.n != n or len(proof.rounds) != security_rounds(params.q):
        return False
    elements = (statement.pk.h, *(x for ct in statement.inputs + statement.outputs for x in ct))
    if not all(params.is_element(x) for x in elements):
        return False
    stmt_digest = hashlib.sha256(statement.to_bytes()).digest()
    return all(_verify_round(statement, stmt_digest, rnd, pr)
               for rnd, pr in enumerate(proof.rounds))


def serialize_proof(proof: ShuffleProof, params: GroupParams) -> bytes:
    """Every value at the byte length of params.p, after the header."""
    header = PROOF_MAGIC + proof.n.to_bytes(4, "big") + len(proof.rounds).to_bytes(4, "big")
    return header + _encode([x for pr in proof.rounds for x in pr.values()], _width(params.p))


def deserialize_proof(blob: bytes, params: GroupParams) -> ShuffleProof:
    """Inverse of serialize_proof for the same group; raises ValueError
    on any other input."""
    if len(blob) < _HEADER_LEN or blob[: len(PROOF_MAGIC)] != PROOF_MAGIC:
        raise ValueError("bad proof header")
    pos = len(PROOF_MAGIC)
    n = int.from_bytes(blob[pos : pos + 4], "big")
    n_rounds = int.from_bytes(blob[pos + 4 : pos + 8], "big")
    if not (0 < n <= 2**20 and 0 < n_rounds <= 2**10):
        raise ValueError("implausible proof dimensions")
    width = _width(params.p)
    if len(blob) != _HEADER_LEN + n_rounds * (5 * n + 9) * width:
        raise ValueError("proof length does not match its header")

    values = iter(_decode(blob[_HEADER_LEN:], width))
    take = lambda count: tuple(islice(values, count))
    rounds = tuple(ProofRound(take(n), take(n), *take(5), take(n), *take(4), take(n), take(n))
                   for _ in range(n_rounds))
    return ShuffleProof(n=n, rounds=rounds)
