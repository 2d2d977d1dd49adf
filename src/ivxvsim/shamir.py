"""Shamir threshold sharing over Z_q."""

from __future__ import annotations

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
    """Lagrange-interpolate the shares at 0."""
    shares = list(shares)
    if len(shares) < t:
        raise InsufficientShares(f"need at least {t} shares, got {len(shares)}")
    indices = [s.index for s in shares]
    if len(set(indices)) != len(indices):
        raise ValueError("duplicate share index")
    secret = 0
    for i, (xi, yi) in enumerate(shares):
        num = den = 1
        for j, (xj, _) in enumerate(shares):
            if i != j:
                num = num * (-xj) % q
                den = den * (xi - xj) % q
        secret = (secret + yi * num * pow(den, -1, q)) % q
    return secret
