"""The shuffle proof's layout, stated for the tests apart from the prover,
which writes it, and the verifier, which reads it by offset: the magic, n
and the repetition count (4 bytes each), then each repetition's fields in
the order of `FIELDS`, every value at the byte length of p.  Tests read a
proof into one dict per repetition, change a field and write it back."""

from itertools import islice

from ivxvsim.groups import byte_width, decode, encode
from ivxvsim.shuffle import PROOF_MAGIC

HEADER_LEN = len(PROOF_MAGIC) + 8

ELEMENT_FIELDS = ("perm_commits", "chain_commits", "t1", "t2", "t3", "t4a", "t4b", "t_hat")
SCALAR_FIELDS = ("s_bar", "s_dot", "s_tld", "s_r", "s_hat", "s_prm")
FIELDS = ELEMENT_FIELDS + SCALAR_FIELDS
# the fields of n values each; every other field is one value
VECTORS = frozenset({"perm_commits", "chain_commits", "t_hat", "s_hat", "s_prm"})


def repetitions(blob: bytes, params) -> list:
    """Each repetition of a well-formed proof as {field: value}, a vector
    field's value a tuple of n ints."""
    n = int.from_bytes(blob[HEADER_LEN - 8 : HEADER_LEN - 4], "big")
    count = int.from_bytes(blob[HEADER_LEN - 4 : HEADER_LEN], "big")
    values = iter(decode(blob[HEADER_LEN:], byte_width(params.p)))
    return [{field: tuple(islice(values, n)) if field in VECTORS else next(values)
             for field in FIELDS} for _ in range(count)]


def assemble(params, reps) -> bytes:
    """The proof of these repetitions, each {field: value} as `repetitions`
    gives them; ValueError or OverflowError for a value the width of p
    does not hold."""
    n = len(reps[0]["perm_commits"])
    values = [x for rep in reps for field in FIELDS
              for x in (rep[field] if field in VECTORS else (rep[field],))]
    return (PROOF_MAGIC + n.to_bytes(4, "big") + len(reps).to_bytes(4, "big")
            + encode(values, byte_width(params.p)))


def with_fields(blob: bytes, params, rep: int = 0, **changes) -> bytes:
    """The proof with some fields of one repetition replaced."""
    reps = repetitions(blob, params)
    reps[rep] = {**reps[rep], **changes}
    return assemble(params, reps)
