"""Seeded synthetic ``.inter`` files for the benchmark workloads.

The generator writes the table text itself and imports nothing from
``recbench``, so a change to the system under test cannot change its
inputs.  The same (shape, seed) always gives the same bytes on a given
numpy; the SHA-256 of every file is recorded next to the reference
reports, so a numpy or generator change that alters the data shows as a
changed digest rather than as a speed change.

Shape of the data:

* per-user activity is log-normal (heavy-tailed), floored at
  ``min_per_user`` and scaled so the file has exactly ``rows`` rows;
* items are drawn per user without replacement with Zipf popularity
  (weighted sampling by exponential keys, Efraimidis-Spirakis);
* ratings follow the MovieLens-1M marginal; timestamps are integer
  seconds spread over three years, in random order within a user;
* rows are grouped by user, users and items carry shuffled integer IDs.
"""

from __future__ import annotations

import hashlib
import zlib
from dataclasses import dataclass

import numpy as np

HEADER = "user_id:token,item_id:token,rating:float,timestamp:float"
# MovieLens-1M share of ratings 1..5
RATING_P = (0.056, 0.108, 0.261, 0.349, 0.226)
T0, T_SPAN = 956_703_932, 3 * 365 * 86_400


@dataclass(frozen=True)
class Shape:
    users: int
    items: int
    rows: int
    min_per_user: int
    activity_sigma: float   # log-normal sigma of per-user activity
    zipf: float             # item popularity exponent


def _user_counts(rng, shape: Shape):
    cap = shape.items // 2
    if not shape.min_per_user * shape.users <= shape.rows <= cap * shape.users:
        raise ValueError(f"cannot place {shape.rows} rows on {shape.users} users")
    raw = rng.lognormal(0.0, shape.activity_sigma, size=shape.users)
    counts = np.full(shape.users, shape.min_per_user, dtype=np.int64)
    spare = shape.rows - counts.sum()
    # hand out the spare rows by weight, capped per user, until none are left
    while spare > 0:
        room = cap - counts
        weight = np.where(room > 0, raw, 0.0)
        share = np.minimum(np.floor(weight / weight.sum() * spare).astype(np.int64), room)
        if share.sum() == 0:
            share[np.argmax(weight)] = 1
        counts += share
        spare -= share.sum()
    return counts


def _pick_items(rng, shape: Shape, counts, chunk=256):
    pop = 1.0 / np.arange(1, shape.items + 1) ** shape.zipf
    inv_pop = 1.0 / pop
    out = []
    for lo in range(0, shape.users, chunk):
        c = counts[lo:lo + chunk]
        keys = rng.standard_exponential((len(c), shape.items)) * inv_pop
        k = int(c.max())
        part = np.argpartition(keys, k - 1, axis=1)[:, :k]
        order = np.take_along_axis(
            part, np.argsort(np.take_along_axis(keys, part, axis=1), axis=1), axis=1)
        out.append(order[np.arange(k)[None, :] < c[:, None]])
    return np.concatenate(out)


def generate(shape: Shape, seed, tag):
    """The file text for one (shape, seed); ``tag`` separates workloads."""
    rng = np.random.default_rng([int(seed), zlib.crc32(tag.encode())])
    counts = _user_counts(rng, shape)
    items = _pick_items(rng, shape, counts)
    users = np.repeat(np.arange(shape.users), counts)
    user_ids = rng.permutation(shape.users) + 1
    item_ids = rng.permutation(shape.items) + 1
    ratings = rng.choice(5, size=shape.rows, p=RATING_P) + 1
    stamps = T0 + rng.integers(0, T_SPAN, size=shape.rows)
    lines = [HEADER]
    lines += [f"{u},{i},{r},{t}" for u, i, r, t in
              zip(user_ids[users].tolist(), item_ids[items].tolist(),
                  ratings.tolist(), stamps.tolist())]
    return "\n".join(lines) + "\n"


def write(path, shape: Shape, seed, tag):
    """Write the file for (shape, seed) and return its SHA-256 hex digest."""
    data = generate(shape, seed, tag).encode("ascii")
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(data)
    tmp.replace(path)
    return hashlib.sha256(data).hexdigest()
