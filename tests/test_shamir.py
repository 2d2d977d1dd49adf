"""Threshold sharing over the scalar field."""

import itertools
import random

import pytest

from ivxvsim.groups import setup
from ivxvsim.seeding import Stream
from ivxvsim.shamir import InsufficientShares, SecretShare, deal, reconstruct


class ForcedRng(Stream):
    """Stub stream whose scalars are all one fixed value."""

    def __init__(self, value):
        super().__init__(0, "forced")
        self.value = value

    def scalars(self, q, count):
        return [self.value] * count


def test_degenerate_threshold_one():
    rng = Stream(0, "shamir")
    shares = deal(5, 1, 4, 11, rng)
    assert [s.index for s in shares] == [1, 2, 3, 4]
    assert all(s.value == 5 for s in shares)


def test_hand_dealing_with_forced_coefficient():
    # q=11, secret 7, t=2: polynomial 7 + 2x once the coefficient is pinned.
    shares = deal(7, 2, 3, 11, ForcedRng(2))
    assert shares == [SecretShare(1, 9), SecretShare(2, 0), SecretShare(3, 2)]


def test_threshold_above_share_count():
    with pytest.raises(ValueError):
        deal(7, 4, 3, 11, Stream(0, "shamir"))
    with pytest.raises(ValueError):
        deal(7, 0, 3, 11, Stream(0, "shamir"))


def test_every_share_index_is_a_nonzero_point_below_q():
    # share q would sit at x = 0 mod q, where the polynomial is the secret,
    # and shares 1 and q + 1 at one point
    for t, k in ((2, 11), (12, 12)):
        with pytest.raises(ValueError, match="k=%d must be below q=11" % k):
            deal(7, t, k, 11, Stream(0, "shamir"))
    assert deal(7, 2, 10, 11, Stream(0, "shamir"))[-1].index == 10


def test_hand_reconstruct():
    assert reconstruct([SecretShare(1, 9), SecretShare(2, 0)], 2, 11) == 7


def test_reconstruct_requires_threshold():
    with pytest.raises(InsufficientShares):
        reconstruct([SecretShare(1, 9)], 2, 11)


def test_reconstruct_rejects_duplicate_indices():
    with pytest.raises(ValueError):
        reconstruct([SecretShare(1, 9), SecretShare(1, 9)], 2, 11)


def quadratic_reconstruct(shares, q):
    """Lagrange interpolation at 0 with one inversion per share: the
    reference formula."""
    secret = 0
    for i, (xi, yi) in enumerate(shares):
        num = den = 1
        for j, (xj, _) in enumerate(shares):
            if i != j:
                num = num * (-xj) % q
                den = den * (xi - xj) % q
        secret = (secret + yi * num * pow(den, -1, q)) % q
    return secret


@pytest.mark.parametrize("q", [11, (1 << 127) - 1, setup("standard", 2).q])
def test_reconstruct_equals_the_quadratic_formula(q):
    # random subsets of points distinct mod q, 0 mod q and indices above q
    # among them, with values on no particular polynomial: the one batched
    # inversion computes what an inversion per share computes
    rng = random.Random(f"lagrange/{q}")
    for _ in range(60):
        residues = rng.sample(range(min(q, 300)), rng.randrange(1, min(q, 40)))
        shares = [SecretShare(r + q * rng.randrange(3), rng.randrange(q)) for r in residues]
        assert reconstruct(shares, 1, q) == quadratic_reconstruct(shares, q), shares
    dealt = deal(rng.randrange(q), 3, 10, q, Stream(3, "shamir"))
    for _ in range(20):
        subset = rng.sample(dealt, rng.randrange(3, 11))
        assert reconstruct(subset, 3, q) == quadratic_reconstruct(subset, q) == \
            quadratic_reconstruct(dealt, q)
    # two indices at one point mod q have no interpolation
    with pytest.raises(ValueError):
        reconstruct([SecretShare(1, 3), SecretShare(1 + q, 5)], 2, q)


def test_all_threshold_subsets_agree():
    rng = Stream(42, "shamir")
    q = 11
    for _ in range(100):
        secret = rng.below(q)
        k = 2 + rng.below(4)
        t = 1 + rng.below(k)
        shares = deal(secret, t, k, q, rng)
        for subset in itertools.combinations(shares, t):
            assert reconstruct(list(subset), t, q) == secret


def test_reconstruct_with_more_than_threshold_shares():
    rng = Stream(5, "shamir")
    shares = deal(8, 2, 5, 11, rng)
    assert reconstruct(shares, 2, 11) == 8


def test_large_field_dealing():
    # Same invariants over a big prime order.
    q = (1 << 127) - 1
    rng = Stream(9, "shamir")
    secret = rng.below(q)
    shares = deal(secret, 3, 5, q, rng)
    for subset in itertools.combinations(shares, 3):
        assert reconstruct(list(subset), 3, q) == secret


def test_share_values_in_field():
    rng = Stream(17, "shamir")
    shares = deal(10, 3, 6, 11, rng)
    for s in shares:
        assert 0 <= s.value < 11
        assert 1 <= s.index <= 6
