"""Evaluation protocols: ordering, splitting, candidate sampling.

A protocol is described by a compact setting string, used verbatim on the
command line::

    (RO|TO)_(RS|LS),(full|uni<N>)

* ``RO`` / ``TO``  random (seeded shuffle) or temporal (ascending
  timestamp, stable on ties) ordering of each user's rows before the
  split.
* ``RS`` / ``LS``  ratio-based splitting (default 0.8/0.1/0.1, floor for
  train and valid, remainder to test, per user) or leave-one-out (last
  row to test, second-to-last to valid; 1-row users go wholly to train,
  2-row users to train+test).  Under RO_LS "last" means the last element
  of the shuffled order.
* ``full`` / ``uniN``  rank against the whole catalog, or against each
  target positive's N uniformly sampled negatives (negatives never
  collide with any of the user's known interactions, across all three
  splits).

All operations are pure functions of (dataset, plan, seed).  Per-user RNG
streams are derived from (seed, purpose, user ID), so results do not
depend on scheduling or user evaluation order.  The shuffle, the valid
negatives and the test negatives each have their own purpose, so the
valid candidates are drawn independently of the test ones.

Per-user grouping has one implementation, :func:`user_index`: one sort of
``user * width + value`` keys gives each user's sorted distinct values as
CSR arrays.  The split reads it directly: it orders each user's segment of
the flat row array in place and cuts all segments in one vectorised pass.
Positives, histories, the uniN known-item sets and BPR's training-negative
sampler are read from it too.
A uniN draw never scans the catalog: each positive draws N distinct
indices into the user's eligible items with
``rng.choice(n_eligible, N, replace=False)``, and each index is mapped to
its item by a binary search over the user's sorted known items.  The
draws are the ones ``rng.choice(eligible_items, N, replace=False)`` gives.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .errors import ProtocolError

_SETTING_RE = re.compile(r"(RO|TO)_(RS|LS),(full|uni([1-9][0-9]*))\Z")

# purpose tags for per-user RNG stream derivation
_RNG_ORDER = 1
_RNG_NEGATIVES = 2          # test candidates
_RNG_VALID_NEGATIVES = 3    # valid candidates


def user_rng(seed, purpose, user_id):
    return np.random.default_rng(np.random.SeedSequence([int(seed), purpose, int(user_id)]))


@dataclass(frozen=True)
class EvalPlan:
    """A fully resolved evaluation setting."""

    ordering: str                      # "RO" | "TO"
    splitting: str                     # "RS" | "LS"
    ratios: tuple = (0.8, 0.1, 0.1)    # RS only: train/valid/test
    candidates: str = "full"           # "full" | "uni"
    n_negatives: int = 0               # uni only
    seed: int = 0

    def __post_init__(self):
        if self.ordering not in ("RO", "TO"):
            raise ProtocolError(f"unknown ordering {self.ordering!r}")
        if self.splitting not in ("RS", "LS"):
            raise ProtocolError(f"unknown splitting {self.splitting!r}")
        if self.candidates not in ("full", "uni"):
            raise ProtocolError(f"unknown candidate mode {self.candidates!r}")
        if self.candidates == "uni" and self.n_negatives < 1:
            raise ProtocolError("uniN requires N >= 1")
        if self.splitting == "RS":
            if len(self.ratios) != 3 or any(r <= 0 for r in self.ratios):
                raise ProtocolError(f"invalid split ratios {self.ratios}")
            if abs(sum(self.ratios) - 1.0) > 1e-9:
                raise ProtocolError(f"split ratios {self.ratios} do not sum to 1")

    def describe(self):
        cand = "full" if self.candidates == "full" else f"uni{self.n_negatives}"
        return f"{self.ordering}_{self.splitting},{cand}"


def parse_eval_setting(spec, seed=0, ratios=(0.8, 0.1, 0.1)) -> EvalPlan:
    """Parse a setting string like ``"RO_RS,full"`` or ``"TO_LS,uni99"``."""
    m = _SETTING_RE.match(spec.strip())
    if not m:
        raise ProtocolError(f"cannot parse evaluation setting {spec!r} "
                            "(expected (RO|TO)_(RS|LS),(full|uni<N>))")
    ordering, splitting, cand, n = m.groups()
    if cand == "full":
        return EvalPlan(ordering, splitting, tuple(ratios), "full", 0, seed)
    return EvalPlan(ordering, splitting, tuple(ratios), "uni", int(n), seed)


@dataclass(frozen=True)
class SplitResult:
    """Row-index lists into the dataset's interaction table."""

    train: np.ndarray
    valid: np.ndarray
    test: np.ndarray


@dataclass(frozen=True)
class CandidateSet:
    """Per test-stage user: ranking positives and candidate items."""

    mode: str                      # "full" | "uni"
    users: np.ndarray              # evaluated users, ascending ID
    positives: list                # per user: item IDs to treat as relevant
    candidates: list | None        # per user (uni only): positives U negatives
    n_items: int
    n_per_pos: int = 0             # uni only: negatives drawn per positive

    def describe(self):
        return self.mode if self.mode == "full" else f"uni{self.n_per_pos}"


def user_index(users, values, width):
    """Each user's sorted distinct ``values`` (in ``[0, width)``) as CSR arrays.

    Returns ascending user IDs, ``indptr`` and the values: the i-th user's
    are ``values[indptr[i]:indptr[i + 1]]``.  One sort of the keys
    ``user * width + value`` groups, orders and de-duplicates them.
    """
    keys = np.asarray(users, dtype=np.int64) * width
    keys += values
    keys.sort()
    keys = keys[np.diff(keys, prepend=-1) != 0]
    owners = keys // width
    starts = np.flatnonzero(np.diff(owners, prepend=-1))
    keys -= owners * width
    return owners[starts], np.append(starts, len(keys)), keys


def in_sorted(keys, query):
    """Whether each entry of ``query`` occurs in the sorted array ``keys`` (may be empty).

    On ``user * width + value`` keys it tests (user, value) pairs, with no matrix.
    """
    found = np.searchsorted(keys, query)
    hit = found < len(keys)
    hit[hit] = keys[found[hit]] == query[hit]
    return hit


def history_by_user(ds: Dataset, rows):
    """Group ALL item IDs of ``rows`` by user (no label filtering)."""
    rows = np.asarray(rows, dtype=np.int64)
    users, indptr, items = user_index(ds.user_ids()[rows], ds.item_ids()[rows], ds.n_items)
    return {int(u): items[indptr[i]:indptr[i + 1]].copy() for i, u in enumerate(users)}


def build_candidates(ds: Dataset, split: SplitResult, mode, seed=0,
                     n_negatives=0, target="test", label_field="label") -> CandidateSet:
    """Build the ranking positives and candidate items for each user.

    A user's positives are the sorted distinct items of its target rows;
    if the ``label_field`` column exists, only rows labeled 1 count.  ``full``
    ranks against the entire catalog.  ``uni`` samples, for each of a
    user's target positives, ``n_negatives`` distinct items uniformly from
    the catalog excluding every item the user interacted with in any split
    (and the padding slot).  Sampling uses a per-user stream derived from
    (seed, target, user ID), so it is deterministic and order-independent,
    and the valid and test negatives are independent draws.
    """
    if target not in ("test", "valid"):
        raise ProtocolError(f"unknown candidate target {target!r}")
    target_rows = split.test if target == "test" else split.valid
    if ds.inter.has_field(label_field):
        target_rows = target_rows[ds.inter.columns[label_field][target_rows] > 0]
    users, ptr, items = user_index(ds.user_ids()[target_rows],
                                   ds.item_ids()[target_rows], ds.n_items)
    positives = [items[lo:hi].copy() for lo, hi in zip(ptr[:-1], ptr[1:])]
    n_items = ds.n_items
    if mode == "full":
        return CandidateSet("full", users, positives, None, n_items)
    if mode != "uni":
        raise ProtocolError(f"unknown candidate mode {mode!r}")
    if n_negatives < 1:
        raise ProtocolError("uniN requires N >= 1")
    rows = np.concatenate([split.train, split.valid, split.test])
    # each user's known items over all splits, the padding ID 0 always
    # among them; below[i] = known[i] - (its rank in the user's list) is
    # the number of eligible items under known[i]
    k_users, k_ptr, known = user_index(
        np.tile(ds.user_ids()[rows], 2),
        np.concatenate([ds.item_ids()[rows], np.zeros(len(rows), np.int64)]),
        n_items)
    below = known - np.arange(len(known)) + np.repeat(k_ptr[:-1], np.diff(k_ptr))
    purpose = _RNG_NEGATIVES if target == "test" else _RNG_VALID_NEGATIVES
    candidates = []
    for u, p, j in zip(users, positives, np.searchsorted(k_users, users)):
        lo, hi = k_ptr[j], k_ptr[j + 1]
        n_eligible = n_items - (hi - lo)
        if n_eligible < n_negatives:
            raise ProtocolError(
                f"user {int(u)}: only {n_eligible} items are eligible as "
                f"negatives, fewer than N={n_negatives}")
        rng = user_rng(seed, purpose, u)
        idx = np.concatenate([rng.choice(n_eligible, size=n_negatives, replace=False)
                              for _ in p])
        # the idx-th eligible item skips each known item with below <= idx
        cands = np.sort(np.concatenate(
            [p, idx + np.searchsorted(below[lo:hi], idx, side="right")]))
        if len(p) > 1:  # one draw is distinct and misses p; two may overlap
            cands = cands[np.diff(cands, prepend=-1) != 0]
        candidates.append(cands)
    return CandidateSet("uni", users, positives, candidates, n_items, n_negatives)


def make_split(ds: Dataset, plan: EvalPlan, time_field="timestamp") -> SplitResult:
    """Order each user's rows and split them into train/valid/test per the plan.

    One :func:`user_index` call groups the row indices by user, in file
    order.  Each user's segment of that flat array is then ordered in
    place, and one vectorised pass cuts every segment at its two split
    points.
    """
    user_col = ds.user_ids()
    n = len(user_col)
    if n == 0:
        raise ProtocolError("cannot group an empty interaction table")
    if plan.ordering == "TO":
        if not ds.inter.has_field(time_field):
            raise ProtocolError(f"temporal ordering requires the {time_field!r} field")
        ts = np.asarray(ds.inter.columns[time_field], dtype=np.float64)
    users, indptr, rows = user_index(user_col, np.arange(n), n)
    for u, lo, hi in zip(users.tolist(), indptr[:-1].tolist(), indptr[1:].tolist()):
        seg = rows[lo:hi]
        if plan.ordering == "RO":
            seg[:] = seg[user_rng(plan.seed, _RNG_ORDER, u).permutation(hi - lo)]
        else:
            seg[:] = seg[np.argsort(ts[seg], kind="stable")]
    sizes = np.diff(indptr)
    if plan.splitting == "RS":  # floors for train and valid, the rest to test
        n_train = (plan.ratios[0] * sizes).astype(np.int64)
        n_valid = (plan.ratios[1] * sizes).astype(np.int64)
    else:  # LS: a 1-row user keeps its row in train, a 2-row user has no valid row
        n_valid = (sizes > 2).astype(np.int64)
        n_train = sizes - (sizes > 1) - n_valid
    at = np.arange(n)
    train_end = np.repeat(indptr[:-1] + n_train, sizes)
    valid_end = train_end + np.repeat(n_valid, sizes)
    return SplitResult(rows[at < train_end], rows[(at >= train_end) & (at < valid_end)],
                       rows[at >= valid_end])
