"""Non-interactive proof that one ciphertext list is a permuted
re-randomization of another.

The argument commits to a permutation matrix and proves, against a
hash-derived challenge vector u, that the committed matrix maps u to a
hidden vector u~ with the same product (a chain of Pedersen-style
commitments carries the running product), and that the same hidden u~
links the aggregated input and output ciphertexts.  Every challenge is
hashed from a canonical transcript serialization, and the commitment
generators are hashed into the group, so no trusted setup is involved.

A small group repeats the argument (`security_rounds`), and each
challenge phase is hashed once for all repetitions together: every u
from one stream over every repetition's permutation commitments, every
gamma from one stream over every repetition's messages.  Hashed one
repetition at a time, a prover could re-try each repetition alone until
its gamma matched a guess, about q tries per repetition: a forgery of a
false toy statement took under 200.  Toy soundness stays weak anyway:
the u check alone lets a false statement through with probability up
to n/q per repetition, and a prover may split its luck between the two
phases, so the soundness tests run on the `mid` group.

The verifier states what it checks as equations, each stacked over all
repetitions (`shuffle_equations`), so that an auditor can check them
together with others; `verify_shuffle` checks them alone.

Every element and scalar is encoded at the byte length of p
(`groups.encode`), and every challenge cut by `groups.hash_scalars`, as
the batch weights are.  A proof is its bytes (`PROOF_MAGIC`): the magic,
n and the repetition count, `security_rounds(q)` (4 bytes each), then
each repetition's 5n + 9 values in the order perm_commits, chain, t1,
t2, t3, t4a, t4b, t_hat, s_bar, s_dot, s_tld, s_r, s_hat, s', so its
header and the group fix its length.  The prover posts the messages it
hashed, and the verifier hashes the bytes as posted.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, repeat
from operator import mul

from .elgamal import Ciphertext, PublicKey, rerandomize
from .groups import (SHORT_BITS, GroupParams, byte_width, decode, encode, fixed_base,
                     hash_scalars, hash_to_element, multi_exp, products_equal)

FS_DOMAIN = b"ivxvsim/shuffle-v4"
PROOF_MAGIC = b"IVXVSHF4"

_HEADER_LEN = len(PROOF_MAGIC) + 8   # magic, n, repetitions

# The largest n that a proof's header may give (`_parse_proof`).
MAX_PROOF_N = 2**20

# Soundness target across repetitions, in bits (see `security_rounds`).
_ROUND_TARGET_BITS = 80

# In a large group each w'_i is a 384-bit integer and each response
# s'_i = w'_i + gamma * u~_i is posted unreduced, below 2^385 < q, as in
# Verificatum: with gamma * u~_i < 2^256 it is within statistical distance
# 2^-128 of uniform on its range, so it hides the permutation, and products
# over the generators and outputs take short exponents.
_RANDOMIZER_BITS = 3 * SHORT_BITS
_RESPONSE_BITS = _RANDOMIZER_BITS + 1


class BadWitness(ValueError):
    """Witness does not reproduce the statement's outputs from its inputs."""


def security_rounds(q: int) -> int:
    """Number of parallel repetitions for the challenge space of order q:
    ceil(80 / min(|q|, 128)), with |q| the bit length of q.  A challenge
    mod q carries log2(q) bits, fewer than |q|, so the toy group's 20
    repetitions of log2(11) ~ 3.46 bits give each challenge phase about
    69 bits, hashed over all repetitions at once; the u check's n/q per
    repetition leaves the toy argument weaker than that (module docstring)."""
    return max(1, -(-_ROUND_TARGET_BITS // min(q.bit_length(), SHORT_BITS)))


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
        return b"stmt" + len(self.inputs).to_bytes(4, "big") + encode(values, byte_width(params.p))


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


@lru_cache(maxsize=4)
def _generators(p: int, q: int, g: int, n: int) -> tuple[int, tuple[int, ...], int]:
    """The commitment base, the n commitment generators and the inverse of
    the generators' product; cached, since each generator costs a hash."""
    params = GroupParams(p=p, q=q, g=g, candidate_bound=1)
    base = hash_to_element(params, b"commit-base", 0)
    gens = tuple(hash_to_element(params, b"commit-gen", i) for i in range(n))
    gens_product = 1
    for h_j in gens:
        gens_product = gens_product * h_j % p
    return base, gens, pow(gens_product, -1, p)


def _challenges(phase: bytes, stmt_digest: bytes, parts, params: GroupParams,
                per_round: int) -> list[list[int]]:
    """Every repetition's `per_round` challenges of one phase, u or gamma,
    cut in order from one stream over the phase, the statement digest and,
    for each repetition, its index (4 bytes) and encoded messages: for u
    its permutation commitments, for gamma those, the chain, t1..t4b and
    t_hat.  Every challenge depends on every repetition."""
    data = b"".join([phase, b"|", stmt_digest,
                     *(rnd.to_bytes(4, "big") + part for rnd, part in enumerate(parts))])
    values = hash_scalars(FS_DOMAIN, data, params, per_round * len(parts))
    return [values[i : i + per_round] for i in range(0, len(values), per_round)]


@lru_cache(maxsize=4)
def _small_powers(p: int, q: int, base: int) -> tuple[int, ...]:
    """base^e mod p for e = 0 .. q - 1, for a base of order q in a small
    group; cached, keyed by the integers alone."""
    powers = [1] * q
    for e in range(1, q):
        powers[e] = powers[e - 1] * base % p
    return tuple(powers)


def _chain_and_t_hat(params: GroupParams, base: int, u_tld, rho_hat, w_hat, w_prm):
    """The chain chain_i = g^rho_hat_i * prev_i^u~_i, the commitments
    t_hat_i = g^w_hat_i * prev_i^w'_i, where prev_i is the commitment base
    for i = 0 and chain_(i-1) after, and rho_dot, the log of the chain's
    last element over g.

    The prover knows prev_i = g^a * base^b, starting from a = 0, b = 1:
    then t_hat_i = g^(w_hat_i + w'_i a) * base^(w'_i b) and chain_i =
    g^(rho_hat_i + u~_i a) * base^(u~_i b).  In a large group each t_hat_i
    is one product over the two tabled bases and each chain element the
    recurrence itself, one product too; in a small group each is two
    fixed-base powers, read from cached tuples of all q powers of g and
    of base, as every exponent here is reduced mod q."""
    p, q, g, large = params.p, params.q, params.g, params.large
    if large:   # builds both tables, where multi_exp finds them
        fixed_base(params, g)
        fixed_base(params, base)
    else:
        g_powers, base_powers = _small_powers(p, q, g), _small_powers(p, q, base)
    chain, t_hat = [], []
    a, b, prev = 0, 1, base
    for u_i, r_i, w_i, w_prm_i in zip(u_tld, rho_hat, w_hat, w_prm):
        x, y = (w_i + w_prm_i * a) % q, w_prm_i * b % q
        t_hat.append(multi_exp(params, (g, base), (x, y)) if large
                     else g_powers[x] * base_powers[y] % p)
        a, b = (r_i + u_i * a) % q, u_i * b % q
        prev = (multi_exp(params, (g, prev), (r_i, u_i)) if large
                else g_powers[a] * base_powers[b] % p)
        chain.append(prev)
    return chain, t_hat, a


def _check_witness(statement: ShuffleStatement, witness: ShuffleWitness) -> None:
    """Raise BadWitness, naming the first output that is not a
    re-randomization of its input, unless g^r_i * c1 = c1' and
    h^r_i * c2 = c2' for every output (c1', c2') and its input (c1, c2).
    Once each distinct element of the statement is found in the order-q
    subgroup, the 2n equations are one `groups.products_equal`; if that
    fails, each output is checked in turn."""
    pk = statement.pk
    params = pk.params
    q, g = params.q, params.g
    rands = [r % q for r in witness.rands]
    ins = [statement.inputs[j] for j in witness.perm]
    equations = chain.from_iterable(
        (((g, x.c1), (r, 1), y.c1), ((pk.h, x.c2), (r, 1), y.c2))
        for x, y, r in zip(ins, statement.outputs, rands))
    elements = {x for ct in statement.inputs + statement.outputs for x in ct}
    if all(map(params.is_element, elements)) and products_equal(params, equations):
        return
    for i, (x, y, r) in enumerate(zip(ins, statement.outputs, rands)):
        if rerandomize(pk, x, r) != y:
            raise BadWitness(f"output {i} is not a re-randomization of input {witness.perm[i]}")


def prove_shuffle(statement: ShuffleStatement, witness: ShuffleWitness, rng) -> bytes:
    """The bytes of a proof accepted by verify_shuffle (module docstring);
    O(n) exponentiations per repetition, each a fixed-base power or a
    multi-exponentiation.

    The repetitions run in three passes, as each challenge phase is
    hashed once for all of them: every first message, then every second
    message, then every response.  Each repetition draws its scalars from
    rng, a `seeding.Stream`, in one order: rho, rho_hat, w_bar, w_dot,
    w_tld, w_r, w_hat, then w'.  All repetitions' scalars come from one
    `scalars` call.  A large group runs one repetition, and draws each w'
    after that call, as a 384-bit integer."""
    pk = statement.pk
    params = pk.params
    p, q, g = params.p, params.q, params.g
    n = len(statement.inputs)
    perm, rands = witness.perm, witness.rands
    if len(perm) != n:
        raise ValueError("witness length does not match statement")
    g_pow = fixed_base(params, g)
    # h carries full-size exponents in t4b and the witness check: with its
    # table built here, as g's, multi_exp reads it inside a short chain
    fixed_base(params, pk.h)
    stmt_digest = hashlib.sha256(statement.to_bytes()).digest()
    _check_witness(statement, witness)

    base, gens, _ = _generators(p, q, g, n)
    out_a = [ct.c1 for ct in statement.outputs]
    out_b = [ct.c2 for ct in statement.outputs]
    width = byte_width(p)
    n_rounds = security_rounds(q)
    # every round's scalars in one draw, cut in the per-round order: rho,
    # rho_hat, (w_bar, w_dot, w_tld, w_r), w_hat and, in a small group, w'.
    # A draw per round (20 in the toy group) made a toy two-voter proof, most
    # of an attack trial, 15-75% slower in two measurements (2-vCPU Xeon).
    block = (3 if params.large else 4) * n + 4
    scalars = rng.scalars(q, n_rounds * block)
    ends = (n, 2 * n, 2 * n + 4, 3 * n + 4, block)
    draws = [[scalars[i + a : i + b] for a, b in zip((0, *ends), ends)]
             for i in range(0, n_rounds * block, block)]
    if params.large:   # w' are not scalars mod q
        for d in draws:
            d[4] = [rng.bits(_RANDOMIZER_BITS) for _ in range(n)]

    commits = []
    for rho, *_ in draws:
        c = [0] * n
        for i in range(n):
            c[perm[i]] = g_pow(rho[perm[i]]) * gens[i] % p
        commits.append(c)
    perm_bytes = [encode(c, width) for c in commits]
    us = _challenges(b"u", stmt_digest, perm_bytes, params, n)
    u_tlds = [[u[j] for j in perm] for u in us]

    seconds, rho_dots = [], []   # each round's chain, t1, t2, t3, t4a, t4b, t_hat
    for (_, rho_hat, (w_bar, w_dot, w_tld, w_r), w_hat, w_prm), u_tld in zip(draws, u_tlds):
        chain, t_hat, rho_dot = _chain_and_t_hat(params, base, u_tld, rho_hat, w_hat, w_prm)
        seconds.append((chain, g_pow(w_bar), g_pow(w_dot),
                        multi_exp(params, (g, *gens), (w_tld, *w_prm)),
                        multi_exp(params, (g, *out_a), (-w_r % q, *w_prm)),
                        multi_exp(params, (pk.h, *out_b), (-w_r % q, *w_prm)), t_hat))
        rho_dots.append(rho_dot)
    messages = [pb + encode((*chain, *ts, *t_hat), width)
                for pb, (chain, *ts, t_hat) in zip(perm_bytes, seconds)]
    gammas = _challenges(b"gamma", stmt_digest, messages, params, 1)

    # each repetition is posted as the messages gamma hashed, then its responses
    posted = []
    for k, (gamma,) in enumerate(gammas):
        rho, rho_hat, (w_bar, w_dot, w_tld, w_r), w_hat, w_prm = draws[k]
        u_tld = u_tlds[k]
        posted += [messages[k], encode([
            (w_bar + gamma * sum(rho)) % q,
            (w_dot + gamma * rho_dots[k]) % q,
            (w_tld + gamma * sum(map(mul, rho, us[k]))) % q,
            (w_r + gamma * sum(map(mul, rands, u_tld))) % q,
            *[(w + gamma * r) % q for w, r in zip(w_hat, rho_hat)],
            # an integer s'_i is below 2^385 < q, so this leaves it unreduced
            *[(w + gamma * u_i) % q for w, u_i in zip(w_prm, u_tld)],
        ], width)]
    return serialize_proof(n, n_rounds, posted)


def serialize_proof(n: int, n_rounds: int, posted) -> bytes:
    """A proof as posted: the header (magic, n, repetition count), then
    the repetitions' bytes in `posted`.  The one writer of the format,
    whose reader is `_parse_proof`."""
    header = [PROOF_MAGIC, n.to_bytes(4, "big"), n_rounds.to_bytes(4, "big")]
    return b"".join(header + posted)


def shuffle_equations(statement: ShuffleStatement, proof: bytes):
    """The equations a proof must satisfy, for `groups.products_equal`;
    None for a proof that does not parse, is for another n, has a scalar
    out of range or holds a value outside the group.  Hashes slices of
    the proof's bytes; every challenge is derived, and every element
    found in the group, h included, before any equation is stated.

    Each field is read by stride from the values decoded once, and each
    check stated once for the R repetitions (`groups.unstack`): t1, t2,
    then t3, t4a and t4b, R rows each if 2n + 1 <= R and else one row per
    repetition each, then the t_hat, n rows per repetition.  A large
    group has R = 1: rows t1, t2, t3, t4a, t4b, then the t_hat."""
    pk = statement.pk
    params = pk.params
    p, q, g = params.p, params.q, params.g
    try:
        n, values = _parse_proof(proof, params)
    except ValueError:
        return None
    if n != len(statement.inputs):
        return None
    size = 5 * n + 9                            # the values of one repetition
    starts = range(0, len(values), size)

    # count values from offset in each repetition, kept as `decode` gave them
    fields = lambda offset, count: type(values)(
        chain.from_iterable(values[i + offset : i + offset + count] for i in starts))
    t1, t2, t3, t4a, t4b = (values[k::size] for k in range(2 * n, 2 * n + 5))
    s_bar, s_dot, s_tld, s_r = (values[k::size] for k in range(3 * n + 5, 3 * n + 9))
    chains, t_hat, s_hat, s_prm = (fields(k, n) for k in (n, 2 * n + 5, 3 * n + 9, 4 * n + 9))
    s_prm_bound = 1 << _RESPONSE_BITS if params.large else q
    if max(chain(s_bar, s_dot, s_tld, s_r, s_hat)) >= q or max(s_prm) >= s_prm_bound:
        return None
    # each distinct element of the statement and of every repetition is tested once
    elements = {pk.h, *(x for ct in statement.inputs + statement.outputs for x in ct)}
    elements.update(fields(0, n), chains, t1, t2, t3, t4a, t4b, t_hat)
    if not all(map(params.is_element, elements)):
        return None
    width = byte_width(p)
    sent = (3 * n + 5) * width                  # a repetition's messages
    messages = [proof[i : i + sent] for i in range(_HEADER_LEN, len(proof), size * width)]
    stmt_digest = hashlib.sha256(statement.to_bytes()).digest()
    us = _challenges(b"u", stmt_digest, [m[: n * width] for m in messages], params, n)
    # a 128-bit challenge's powers stay short as negative exponents, which
    # products_equal moves to its short side; a small group sums them as
    # they are, over its log table
    neg_gammas = [-gamma for (gamma,) in _challenges(b"gamma", stmt_digest, messages, params, 1)]
    base, gens, gens_inverse = _generators(p, q, g, n)
    c_bars, prod_u_gammas = [], []
    for i, u, neg_gamma in zip(starts, us, neg_gammas):
        c_bar, prod_u = gens_inverse, 1
        for c_j, u_j in zip(values[i : i + n], u):
            c_bar, prod_u = c_bar * c_j % p, prod_u * u_j % q
        c_bars.append(c_bar)
        prod_u_gammas.append(-prod_u * neg_gamma % q)
    # g^s_bar = t1 * c_bar^gamma, and g^s_dot = t2 * c_dot^gamma with
    # c_dot = chain[-1] * base^-prod_u, each right-hand power moved left
    equations = [((g, c_bars), (s_bar, neg_gammas), t1),
                 ((g, values[2 * n - 1 :: size], base), (s_dot, neg_gammas, prod_u_gammas), t2)]
    # t3 and t4 equations as lhs * (prod x_j^u_j)^-gamma == t, which for
    # elements of order q is one product with exponents -u_j * gamma
    parts = [(key, *[ct[k] for ct in statement.outputs + statement.inputs])
             for k, key in enumerate((g, pk.h))]
    neg_s_r = [-x % q for x in s_r]

    def wide_rows():    # built as they are checked: at n = 2000 all 3R would take megabytes
        for r, i in enumerate(starts):
            exps = (*values[i + 4 * n + 9 : i + size], *[u_j * neg_gammas[r] for u_j in us[r]])
            yield (g, *gens, *values[i : i + n]), (s_tld[r], *exps), t3[r]
            yield from ((b, (neg_s_r[r], *exps), t4) for b, t4 in zip(parts, (t4a[r], t4b[r])))

    stacked = 2 * n + 1 <= len(starts)  # stacking pays at the toy n = 2, not at n = 2000
    if stacked:
        neg_u_gammas = zip(*([u_j * ng for u_j in u] for u, ng in zip(us, neg_gammas)))
        exps = (*(values[k::size] for k in range(4 * n + 9, 5 * n + 9)), *neg_u_gammas)
        equations.append(((g, *gens, *(values[k::size] for k in range(n))), (s_tld, *exps), t3))
        equations += [(b, (neg_s_r, *exps), t4) for b, t4 in zip(parts, (t4a, t4b))]
    # g^s_hat_i * prev^s'_i = t_hat_i * chain_i^gamma, where prev is the
    # commitment base for i = 0 and chain_(i-1) after
    prevs = type(values)(chain.from_iterable((base, *values[i + n : i + 2 * n - 1])
                                             for i in starts))
    gammas_each = list(chain.from_iterable(repeat(neg_gamma, n) for neg_gamma in neg_gammas))
    t_hats = ((g, prevs, chains), (s_hat, s_prm, gammas_each), t_hat)
    return chain(equations, () if stacked else wide_rows(), [t_hats])


def verify_shuffle(statement: ShuffleStatement, proof: bytes) -> bool:
    """Check a proof against a statement: `shuffle_equations` checked by
    `groups.products_equal`.  Anything malformed is a reject, not an
    error."""
    equations = shuffle_equations(statement, proof)
    return equations is not None and products_equal(statement.pk.params, equations)


def _parse_proof(blob: bytes, params: GroupParams) -> tuple[int, tuple[int, ...]]:
    """n and the decoded values of a proof whose header gives 0 < n <=
    `MAX_PROOF_N`, `security_rounds(q)` repetitions and its length;
    ValueError for any other."""
    if len(blob) < _HEADER_LEN or blob[: len(PROOF_MAGIC)] != PROOF_MAGIC:
        raise ValueError("bad proof header")
    pos = len(PROOF_MAGIC)
    n = int.from_bytes(blob[pos : pos + 4], "big")
    n_rounds = int.from_bytes(blob[pos + 4 : pos + 8], "big")
    if not (0 < n <= MAX_PROOF_N and n_rounds == security_rounds(params.q)):
        raise ValueError("proof dimensions out of range")
    width = byte_width(params.p)
    if len(blob) != _HEADER_LEN + n_rounds * (5 * n + 9) * width:
        raise ValueError("proof length does not match its header")
    return n, decode(blob[_HEADER_LEN:], width)
