"""Shamir threshold sharing over Z_q."""

from __future__ import annotations

from itertools import accumulate
from math import prod
from typing import Iterable, NamedTuple


class InsufficientShares(ValueError):
    pass


class SecretShare(NamedTuple):
    index: int
    value: int


def _poly_eval(coeffs, x, q):
    y = 0
    for c in reversed(coeffs):
        y = (y * x + c) % q
    return y


def deal(secret: int, t: int, k: int, q: int, rng) -> list[SecretShare]:
    """Split secret into k shares with reconstruction threshold t.

    The sharing polynomial has degree t-1, constant term secret and the
    other coefficients drawn from a `seeding.Stream`; share i is
    (i, poly(i)) for i = 1..k.  Each index must be a distinct nonzero
    point of Z_q, so k < q: share q would be the secret itself.
    """
    if not 1 <= t <= k:
        raise ValueError(f"threshold t={t} must satisfy 1 <= t <= k={k}")
    if k >= q:
        raise ValueError(f"share count k={k} must be below q={q}")
    coeffs = [secret % q] + rng.scalars(q, t - 1)
    return [SecretShare(i, _poly_eval(coeffs, i, q)) for i in range(1, k + 1)]


def reconstruct(shares: Iterable[SecretShare], t: int, q: int) -> int:
    """Lagrange-interpolate the shares at 0, with exact products and one
    modular inversion for all denominators (Montgomery's trick)."""
    shares = list(shares)
    if len(shares) < t:
        raise InsufficientShares(f"need at least {t} shares, got {len(shares)}")
    indices = [s.index for s in shares]
    if len(set(indices)) != len(indices):
        raise ValueError("duplicate share index")
    # share i's weight is nums[i] / dens[i], prod_(j != i) x_j / (x_j - x_i)
    nums = [prod([xj for xj in indices if xj != xi]) for xi in indices]
    dens = [prod([xj - xi for xj in indices if xj != xi]) % q for xi in indices]
    running = list(accumulate(dens, lambda acc, d: acc * d % q, initial=1))  # of dens[:i]
    inverse, secret = pow(running[-1], -1, q), 0    # inverse: of dens[:i + 1], for i below
    for i in reversed(range(len(shares))):
        secret = (secret + shares[i].value * nums[i] * inverse * running[i]) % q
        inverse = inverse * dens[i] % q
    return secret
