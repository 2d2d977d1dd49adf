"""Prime-order Schnorr subgroups of Z_p* with pinned parameter presets:
"toy" (p=23, q=11), traceable by hand; "mid", the smallest safe prime
above 2^386 with g=4, the fastest group that takes every large-group
path; and "standard", the 2048-bit MODP group of RFC 3526.  Each is a
safe-prime group, p = 2q + 1, so its order-q subgroup is exactly the
quadratic residues, which `is_element` finds by a Jacobi symbol.

A group is large when q has more than 3 * 128 + 1 bits
(`GroupParams.large`, decided here and nowhere else).  At that length
128-bit batch weights and shuffle challenges are sound, a shuffle
response over a 384-bit randomizer is shorter than q and fits an
element's width, and this module's Python loops (comb tables, Straus
products) beat the builtin pow.  A group that is not large must have
q < 2^8: its arithmetic runs on exponents, through a table of discrete
logarithms over all of Z_p*, built on first use, so a product of powers
is one sum mod p - 1 and one lookup, and its scalars are cut a byte at a
time (`small_scalars`).  Every path computes what the builtin pow would,
so no transcript depends on which one runs.

It also holds the one fixed-width codec (`encode`, `decode`) and the one
cut of values from a SHAKE-256 stream (`hash_scalars`), for the shuffle's
proofs and Fiat-Shamir challenges and for the batch weights alike.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, repeat
from operator import mul

# RFC 3526, 2048-bit MODP group. p is a safe prime, q = (p-1)/2 is prime,
# and 2 has order exactly q (2^q = 1 mod p, checked in the test suite).
_MODP_2048_P = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
    "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
    "4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF05"
    "98DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB"
    "9ED529077096966D670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B"
    "E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9DE2BCBF695581718"
    "3995497CEA956AE515D2261898FA051015728E5A8AACAA68FFFFFFFFFFFFFFFF",
    16,
)

# The smallest safe prime whose q is longer than 385 bits, found with
# sympy: q = 2^385 + 241971 and p = 2q + 1 are prime, and g = 4 = 2^2, a
# quadratic residue other than 1, has order q.
_MID_P = 2**386 + 483943

MAX_CANDIDATE_BOUND = 2**16

# Length of a batch weight and of a shuffle challenge, each sound only when
# shorter than q; a shuffle response is below 2^(3 * SHORT_BITS + 1).
SHORT_BITS = 128

# Comb rows: two blocks of 2^8 entries, about 160 KB at 2048 bits.
_COMB_ROWS = 8
# Sliding-window widths for multi_exp.  A width w costs 2^(w-1) table
# entries and about bits/(w+1) multiplications, which is least for w = 1
# up to 6 bits, w = 2 up to 24, and so on: 384-bit exponents get w = 5 and
# 2047-bit ones w = 7.
_WINDOW_LIMITS = (6, 24, 80, 240, 672, 1792)

# Domain tag of the SHAKE-256 stream that products_equal cuts its weights from.
_BATCH_DOMAIN = b"ivxvsim/batch-v2"


class UnknownPreset(ValueError):
    pass


@dataclass(frozen=True)
class GroupParams:
    """Ambient modulus p, a safe prime 2q + 1, prime subgroup order q,
    generator g, and the exclusive upper bound on encodable candidate
    indices.  `large`, derived from q, says whether q has more than
    3 * SHORT_BITS + 1 bits; every size-dependent choice reads it.  A
    group that is not large must have 0 < q < 2^8, so that its log table
    stays small and a scalar fits one byte."""

    p: int
    q: int
    g: int
    candidate_bound: int
    large: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.p != 2 * self.q + 1:
            raise ValueError("p must be the safe prime 2q + 1")
        large = self.q.bit_length() > 3 * SHORT_BITS + 1
        if not large and not 0 < self.q < 1 << 8:
            raise ValueError("a group with q of at most 385 bits must have 0 < q < 2^8")
        object.__setattr__(self, "large", large)

    def is_element(self, x: int) -> bool:
        """Membership test for the order-q subgroup, the quadratic residues:
        the Legendre symbol (x|p) = 1, computed as a Jacobi symbol."""
        return 0 < x < self.p and _jacobi(x, self.p) == 1


def byte_width(p: int) -> int:
    """The byte length of p, the width of every encoded element and scalar."""
    return (p.bit_length() + 7) // 8


def encode(values, width: int) -> bytes:
    """Each value big-endian in exactly `width` bytes, no separators;
    ValueError or OverflowError for a value that does not fit."""
    if width == 1:
        return bytes(values)   # one byte per value, as decode reads it
    return b"".join([x.to_bytes(width, "big") for x in values])


def decode(data: bytes, width: int):
    """Inverse of `encode` for data of a whole number of values: a tuple,
    or for width 1 bytes, a sequence of its values at a byte each, not 8."""
    if width == 1:
        return bytes(data)
    return tuple([int.from_bytes(data[i : i + width], "big") for i in range(0, len(data), width)])


def hash_scalars(tag: bytes, data: bytes, params: GroupParams, count: int) -> list[int]:
    """`count` values cut in order from one SHAKE-256 stream over tag, "|"
    and data: the shuffle's Fiat-Shamir challenges and the batch weights
    of `products_equal`.  In a large group each is a 128-bit integer,
    below q, as in Terelius and Wikstroem, "Proofs of Restricted
    Shuffles" (AFRICACRYPT 2010).  In a small group each is a uniform
    scalar mod q (`small_scalars`, one byte each, the stream read further
    until enough are kept)."""
    shake = hashlib.shake_256(tag + b"|" + data)
    if params.large:
        need = SHORT_BITS // 8
        stream = shake.digest(count * need)
        return [int.from_bytes(stream[i : i + need], "big") for i in range(0, count * need, need)]
    q = params.q
    size = (count << q.bit_length()) // q + 8   # the expected length, and a little
    kept = small_scalars(q, shake.digest(size))
    while len(kept) < count:
        size *= 2
        kept = small_scalars(q, shake.digest(size))
    return list(kept[:count])


def small_scalars(q: int, data: bytes) -> bytes:
    """For 0 < q < 2^8, the top |q| bits of each byte of data, in order,
    with the values of q or more dropped: uniform scalars mod q by exact
    rejection sampling from uniform bytes, one byte each (`bytes.translate`)."""
    return data.translate(*_top_byte_tables(q))


@lru_cache(maxsize=None)        # at most one entry for each q < 2^8
def _top_byte_tables(q: int) -> tuple[bytes, bytes]:
    """bytes.translate's table and deletions for 0 < q < 2^8: a byte
    shifted right by 8 - |q|, dropped if that is q or more."""
    shift = 8 - q.bit_length()
    return bytes(b >> shift for b in range(256)), bytes(range(q << shift, 256))


_PRESETS = {
    "toy": (23, 11, 2),
    "mid": (_MID_P, (_MID_P - 1) // 2, 4),
    "standard": (_MODP_2048_P, (_MODP_2048_P - 1) // 2, 2),
}


def setup(preset: str, candidate_bound: int) -> GroupParams:
    """Return the pinned group parameters for a named preset.

    candidate_bound must satisfy 1 <= candidate_bound <= min(q, 2^16):
    plaintexts are encoded in the exponent, so the message space cannot
    exceed the subgroup order.
    """
    if preset not in _PRESETS:
        raise UnknownPreset(f"unknown group preset: {preset!r}")
    p, q, g = _PRESETS[preset]
    if candidate_bound < 1:
        raise ValueError("candidate_bound must be positive")
    if candidate_bound > MAX_CANDIDATE_BOUND:
        raise ValueError(f"candidate_bound must satisfy C <= {MAX_CANDIDATE_BOUND}")
    if candidate_bound > q:
        raise ValueError(f"candidate_bound must satisfy C <= q = {q}")
    return GroupParams(p=p, q=q, g=g, candidate_bound=candidate_bound)


def hash_to_element(params: GroupParams, tag: bytes, index: int) -> int:
    """Derive a subgroup element of order q from a domain tag, with no
    known discrete log relative to g or to other derived elements.

    Candidates x are hashed from (tag, index, counter) and mapped into the
    subgroup by squaring, x^((p-1)/q) with cofactor 2 since p = 2q + 1;
    the counter advances past the identity.
    """
    counter = 0
    while True:
        material = b"ivxvsim/group|%b|%d|%d" % (tag, index, counter)
        x = int.from_bytes(hashlib.sha256(material).digest(), "big") % params.p
        if x > 1:
            candidate = x * x % params.p
            if candidate != 1:
                return candidate
        counter += 1


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a|n) for odd n > 0, by the binary algorithm."""
    a %= n
    result = 1
    while a:
        zeros = (a & -a).bit_length() - 1
        a >>= zeros
        if zeros & 1 and n & 7 in (3, 5):
            result = -result
        if a & n & 3 == 3:
            result = -result
        a, n = n % a, a
    return result if n == 1 else 0


class _Comb:
    """Lim-Lee fixed-base comb with two blocks, for one base of order q.

    An exponent's bits are laid out in `_COMB_ROWS` rows of `cols` bits,
    and each row is cut into a low block of `half` = ceil(cols / 2) bits
    and a high block of the rest.  `tables[0]` holds, for each pattern d
    of 8 bits, the product of base^(2^(i * cols)) over the rows i set in
    d; `tables[1]` the same with base^(2^(i * cols + half)), that is
    `tables[0]` raised to 2^half.  Column j of an exponent, the bits
    i * cols + j of the low block and i * cols + half + j of the high
    one, picks one entry of each table, which is then raised to 2^j:
    `spread` hands those entries to a chain of `half` squarings, which
    multiplies them in, at most `cols` multiplications.
    """

    def __init__(self, p: int, q: int, base: int):
        self.p, self.q = p, q
        cols = self.cols = -(-q.bit_length() // _COMB_ROWS)
        half = self.half = -(-cols // 2)
        low, high = [1], [1]
        head = base       # base^(2^(row * cols)), then base^(2^(row * cols + half))
        for row in range(_COMB_ROWS):
            if row:
                for _ in range(cols - half):
                    head = head * head % p
            low += [x * head % p for x in low]
            for _ in range(half):
                head = head * head % p
            high += [x * head % p for x in high]
        self.tables = low, high

    def spread(self, e: int, slots) -> None:
        """Append to slots[j], for each column j of 0 <= e < q, the entries
        of both tables that column picks, so that `_square_and_multiply`
        over slots of at least `half` lists yields base^e times the rest."""
        cols, half = self.cols, self.half
        low, high = self.tables
        low_mask, high_mask = (1 << half) - 1, (1 << cols - half) - 1
        # one bit string per row and block, the high block's top row
        # first, so that each column read top to bottom is the binary
        # index of its high entry followed by that of its low entry
        rows = [format(e >> (i * cols + half) & high_mask, f"0{half}b")
                for i in reversed(range(_COMB_ROWS))]
        rows += [format(e >> (i * cols) & low_mask, f"0{half}b")
                 for i in reversed(range(_COMB_ROWS))]
        for slot, column in zip(slots[half - 1 :: -1], zip(*rows)):
            d_high, d_low = divmod(int("".join(column), 2), 1 << _COMB_ROWS)
            if d_high:
                slot.append(high[d_high])
            if d_low:
                slot.append(low[d_low])

    def pow(self, e: int) -> int:
        slots = [[] for _ in range(self.half)]
        self.spread(e % self.q, slots)
        return _square_and_multiply(self.p, slots)


# The comb tables of a process, least recently used first.  `fixed_base`
# builds a missing table; `multi_exp` only uses the tables already here,
# so a base gets a table only when some caller asks for its fixed powers.
_COMBS = OrderedDict()          # (p, q, base) -> _Comb
_COMB_CACHE_SIZE = 32


def _comb(p: int, q: int, base: int, build: bool = False):
    """The table of `base`, built if missing and `build` is set; else None."""
    key = (p, q, base)
    comb = _COMBS.get(key)
    if comb is not None:
        _COMBS.move_to_end(key)
    elif build:
        comb = _COMBS[key] = _Comb(p, q, base)
        if len(_COMBS) > _COMB_CACHE_SIZE:
            _COMBS.popitem(last=False)
    return comb


@lru_cache(maxsize=4)
def _log_tables(p: int):
    """(log, exp) for a prime p < 2^9 and its least primitive root r:
    exp[k] = r^k mod p for 0 <= k < p - 1, and log[x] = k for each x =
    r^k.  As r has order p - 1, prod b_i^e_i = exp[sum e_i * log b_i mod
    p - 1] for every b_i of Z_p* and every integer e_i, negative ones
    too: what the builtin pow returns.  log[0] is None, so that a base of
    0 fails in arithmetic; indexed, log also takes the bases -p < b < 0,
    as b + p.  Built on first use, one pair per modulus."""
    if p < 3 or any(p % d == 0 for d in range(2, int(p**0.5) + 1)):
        raise ValueError("p must be an odd prime")
    for root in range(2, p):
        exp, x = [1], root
        while x != 1:
            exp.append(x)
            x = x * root % p
        if len(exp) == p - 1:
            break
    log = [None] * p
    for k, x in enumerate(exp):
        log[x] = k
    return tuple(log), tuple(exp)


def _pow_product(p: int, bases, exponents) -> int:
    """The product of base_i^e_i mod p by the builtin pow: in a small
    group, for the bases its log table does not hold, those outside
    -p < b < p and those of 0 mod p."""
    acc = 1
    for b, e in zip(bases, exponents):
        acc = acc * pow(b, e, p) % p
    return acc


def fixed_base(params: GroupParams, base: int):
    """The function e -> base^e mod p for a base of order q, e taken mod q:
    in a large group the base's comb table, built on first use and kept
    in a bounded cache, where `multi_exp` finds it too; in a small group
    one lookup, exp[e * log base mod p - 1], or the builtin pow for a base
    of 0 mod p.  Look it up once per batch of exponentiations."""
    p = params.p
    if params.large:
        return _comb(p, params.q, base, build=True).pow
    log, exp = _log_tables(p)
    log_base, order = log[base % p], p - 1
    if log_base is None:
        return lambda e: pow(base, e, p)
    return lambda e: exp[e * log_base % order]


def power(params: GroupParams, base: int, e: int) -> int:
    """base^e mod p for one base of order q, e taken mod q, by the builtin
    pow: for a base raised to a power once, which neither a table nor a
    shared chain of squarings pays for."""
    return pow(base, e % params.q, params.p)


def _square_and_multiply(p: int, slots) -> int:
    """The product over k of (prod slots[k])^(2^k) mod p, with one chain
    of len(slots) squarings."""
    acc = 1
    for slot in reversed(slots):
        acc = acc * acc % p
        for x in slot:
            acc = acc * x % p
    return acc


def multi_exp(params: GroupParams, bases, exponents) -> int:
    """The product of base_i^e_i mod p for bases of order q, each e_i taken
    mod q; 1 for no bases.  A small group takes one sum of exponents and
    one lookup, exp[sum e_i * log base_i mod p - 1], exact for any integer
    e_i and any base of Z_p*, as the builtin pow is (`_log_tables`).

    In a large group Straus' method shares one chain of squarings among
    all the bases.  Each exponent is cut, from its low end, into windows
    that start and end on a set bit, so each window is an odd digit below
    2^w and only the odd powers of its base are tabled; w grows with the
    exponent's length (`_WINDOW_LIMITS`).  A base that already has a comb
    table (see `fixed_base`) and an exponent longer than one row of it is
    instead read from that table, column by column, in the low `half`
    steps of the same chain, with no squarings of its own.  The chain is
    then as long as the longest exponent of a base without a table."""
    p = params.p
    if not params.large:
        log, exp = _log_tables(p)
        try:
            return exp[sum(map(mul, exponents, map(log.__getitem__, bases))) % (p - 1)]
        except (IndexError, TypeError):     # a base the table does not hold
            return _pow_product(p, bases, exponents)
    q = params.q
    terms, length = [], 0       # terms: (comb or None, base, e)
    for b, e in zip(bases, exponents):
        e %= q
        if not e:
            continue
        comb = _comb(p, q, b)
        if comb is not None and e.bit_length() > comb.cols:
            length = max(length, comb.half)
        else:
            comb = None
            length = max(length, e.bit_length())
        terms.append((comb, b, e))
    # slots[k]: the table entries multiplied in after the squaring for bit k
    slots = [[] for _ in range(length)]
    for comb, b, e in terms:
        if comb is not None:
            comb.spread(e, slots)
            continue
        width = bisect_left(_WINDOW_LIMITS, e.bit_length()) + 1
        mask = (1 << width) - 1
        square = b * b % p
        odd = [b]                       # b, b^3, .., b^mask
        for _ in range(mask >> 1):
            odd.append(odd[-1] * square % p)
        bit = 0
        while e:
            zeros = (e & -e).bit_length() - 1
            e >>= zeros
            bit += zeros
            slots[bit].append(odd[(e & mask) >> 1])
            e >>= width
            bit += width
    return _square_and_multiply(p, slots)


def batch_weights(params: GroupParams, equations) -> list[int]:
    """The 128-bit weights `products_equal` gives a list of equations in a
    large group: `hash_scalars` over each equation's pair count, its (base
    mod p, exponent mod q) pairs as zip yields them and its target mod p."""
    p, q = params.p, params.q
    width = byte_width(p)
    encoded = []
    for bases, exponents, target in equations:
        pairs = [(b % p, e % q) for b, e in zip(bases, exponents)]
        encoded.append(encode((len(pairs), *chain.from_iterable(pairs), target % p), width))
    return hash_scalars(_BATCH_DOMAIN, b"".join(encoded), params, len(encoded))


def unstack(equations):
    """Every entry as rows, in order: a row as it is, and a stacked entry,
    whose target is k values and each base and exponent one int for all
    rows or k values, as its k rows, each a pair of tuples and an int."""
    for bases, exponents, target in equations:
        if isinstance(target, int):
            yield bases, exponents, target
            continue
        m = len(bases)
        columns = [repeat(x) if isinstance(x, int) else x for x in (*bases, *exponents)]
        for row in zip(*columns, target):
            yield row[:m], row[m:-1], row[-1]


def _tabled_holds(log, exp, bases, exponents, target) -> bool:
    """Whether an entry holds in a small group, over the log table: a row
    as in `multi_exp`; a stacked entry by columns, each term adding to all
    rows' sums in one pass, and each row compared with its own target."""
    if isinstance(target, int):
        return exp[sum(map(mul, exponents, map(log.__getitem__, bases))) % len(exp)] == target
    order, sums = len(exp), [0] * len(target)
    for b, e in zip(bases, exponents):
        es, bs = (repeat(x) if isinstance(x, int) else x for x in (e, b))
        # chained maps of bound methods took twice as long; a reduced sum is a cached int
        sums = [(s + x * log[y]) % order for s, x, y in zip(sums, es, bs)]
    return [exp[s] for s in sums] == list(target)


def products_equal(params: GroupParams, equations) -> bool:
    """Whether every equation (bases, exponents, target) holds, that is
    prod base_i^e_i = target mod p with each e_i taken mod q; True for no
    equations.  `equations` may be any iterable, read once; each bases
    and exponents a sequence, or an entry a stacked equation (`unstack`).

    Precondition: every base and target is in the order-q subgroup.  A
    factor of order 2 would pass the large-group check for about half of
    all weights.

    In a large group each row of `unstack(equations)` gets a 128-bit
    weight w_k (`batch_weights`) and prod_k (prod_i base_i^e_i)^w_k =
    prod_k target_k^w_k is checked as two `multi_exp` calls.  A base with
    e_i >= 0 goes on the left as base^(w_k * e_i), to be reduced mod q,
    and one with e_i < 0 on the right as base^(w_k * |e_i|), beside the
    targets: a short exponent passed negated, rather than reduced mod q,
    keeps its power short.  Each base's exponents are summed on its side,
    a base on both sides is folded into the left, and a target of 1 adds
    nothing, so an equation may be stated as a product equal to 1.  If an
    equation fails, at most one value of its weight makes the sums agree,
    so a false set passes with probability at most 2^-128.  The weights
    are hashed from the equations themselves, so none can be chosen after
    them.

    In a small group each entry is checked in turn over the log table, a
    stacked one by columns, up to the first that fails: with q = 11 a
    weighted check would pass a false set one time in eleven.  A base the
    table does not hold sends its entry, row by row, to the builtin pow."""
    p = params.p
    if not params.large:
        log, exp = _log_tables(p)
        for entry in equations:
            try:
                if not _tabled_holds(log, exp, *entry):
                    return False
            except (IndexError, TypeError):     # a base the table does not hold
                if any(_pow_product(p, b, e) != t for b, e, t in unstack([entry])):
                    return False
        return True
    equations = list(unstack(equations))
    left, right = {}, {}        # base -> summed weighted exponent on that side
    for w, (bases, exponents, target) in zip(batch_weights(params, equations), equations):
        for b, e in zip(bases, exponents):
            if e < 0:
                right[b] = right.get(b, 0) - w * e
            else:
                left[b] = left.get(b, 0) + w * e
        if target != 1:
            right[target] = right.get(target, 0) + w
    for b in left.keys() & right.keys():
        left[b] -= right.pop(b)
    return multi_exp(params, left, left.values()) == multi_exp(params, right, right.values())
