"""Evaluation protocols: grouping, ordering, splitting, candidate sampling.

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
  test positive's N uniformly sampled negatives (negatives never collide
  with any of the user's known interactions, across all three splits).

All operations are pure functions of (dataset, plan, seed).  Per-user RNG
streams are derived from (seed, purpose, user ID), so results do not
depend on scheduling or user evaluation order.

Per-user grouping has one implementation, :func:`user_index`: one sort of
``user * width + value`` keys gives each user's sorted distinct values as
CSR arrays.  Row groups, positives, histories and the uniN known-item sets
are all read from it.  A uniN draw never scans the catalog: each positive
draws N distinct indices into the user's eligible items with
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
_RNG_NEGATIVES = 2


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
    group_by_user: bool = True
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
        return EvalPlan(ordering, splitting, tuple(ratios), "full", 0, True, seed)
    return EvalPlan(ordering, splitting, tuple(ratios), "uni", int(n), True, seed)


@dataclass(frozen=True)
class SplitResult:
    """Row-index lists into the dataset's interaction table."""

    train: np.ndarray
    valid: np.ndarray
    test: np.ndarray

    @property
    def parts(self):
        return {"train": self.train, "valid": self.valid, "test": self.test}


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


def _as_dict(users, indptr, values):
    # copies, not views: with views into the one index array, evaluating
    # a 2,135-user full-ranking run kept about 4 MB more memory resident
    return {int(u): values[indptr[i]:indptr[i + 1]].copy()
            for i, u in enumerate(users)}


def group_by_user(ds: Dataset) -> dict:
    """Map each user ID to its interaction row indices, in file order."""
    users = ds.user_ids()
    if len(users) == 0:
        raise ProtocolError("cannot group an empty interaction table")
    return _as_dict(*user_index(users, np.arange(len(users)), len(users)))


def order_rows(groups, mode, seed=0, timestamps=None) -> dict:
    """Order each group's rows: RO = seeded per-user shuffle, TO = by time.

    TO sorts ascending by timestamp and is stable, so equal timestamps
    keep their file order.
    """
    if mode == "RO":
        out = {}
        for uid, rows in groups.items():
            perm = user_rng(seed, _RNG_ORDER, uid).permutation(len(rows))
            out[uid] = rows[perm]
        return out
    if mode == "TO":
        if timestamps is None:
            raise ProtocolError("temporal ordering requires a timestamp field")
        timestamps = np.asarray(timestamps, dtype=np.float64)
        out = {}
        for uid, rows in groups.items():
            out[uid] = rows[np.argsort(timestamps[rows], kind="stable")]
        return out
    raise ProtocolError(f"unknown ordering {mode!r}")


def split_rows(ordered_groups, plan: EvalPlan) -> SplitResult:
    """Partition each ordered group into train/valid/test per the plan."""
    train, valid, test = [], [], []
    for uid in ordered_groups:
        rows = ordered_groups[uid]
        g = len(rows)
        if plan.splitting == "RS":
            n_train = int(plan.ratios[0] * g)
            n_valid = int(plan.ratios[1] * g)
            train.append(rows[:n_train])
            valid.append(rows[n_train:n_train + n_valid])
            test.append(rows[n_train + n_valid:])
        else:  # LS
            if g == 1:
                train.append(rows)
            elif g == 2:
                train.append(rows[:1])
                test.append(rows[1:])
            else:
                train.append(rows[:-2])
                valid.append(rows[-2:-1])
                test.append(rows[-1:])
    def cat(parts):
        if not parts:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(parts).astype(np.int64)

    return SplitResult(cat(train), cat(valid), cat(test))


def positives_by_user(ds: Dataset, rows, label_field="label"):
    """Group the item IDs of ``rows`` by user, sorted and de-duplicated.

    If a label column exists, only rows labeled 1 count as positives
    (all rows still count as known history for exclusion purposes).
    """
    rows = np.asarray(rows, dtype=np.int64)
    if ds.inter.has_field(label_field):
        labels = ds.inter.columns[label_field][rows]
        rows = rows[labels > 0]
    return history_by_user(ds, rows)


def history_by_user(ds: Dataset, rows):
    """Group ALL item IDs of ``rows`` by user (no label filtering)."""
    rows = np.asarray(rows, dtype=np.int64)
    return _as_dict(*user_index(ds.user_ids()[rows], ds.item_ids()[rows], ds.n_items))


def build_candidates(ds: Dataset, split: SplitResult, mode, seed=0,
                     n_negatives=0, target="test") -> CandidateSet:
    """Build the ranking positives and candidate items for each user.

    ``full`` ranks against the entire catalog.  ``uni`` samples, for each
    of a user's target positives, ``n_negatives`` distinct items uniformly
    from the catalog excluding every item the user interacted with in any
    split (and the padding slot).  Sampling uses a per-user stream derived
    from (seed, user ID), so it is deterministic and order-independent.
    """
    if target not in ("test", "valid"):
        raise ProtocolError(f"unknown candidate target {target!r}")
    target_rows = split.test if target == "test" else split.valid
    pos = positives_by_user(ds, target_rows)
    users = np.array(sorted(pos), dtype=np.int64)
    positives = [pos[int(u)] for u in users]
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
    candidates = []
    for u, p, j in zip(users, positives, np.searchsorted(k_users, users)):
        lo, hi = k_ptr[j], k_ptr[j + 1]
        n_eligible = n_items - (hi - lo)
        if n_eligible < n_negatives:
            raise ProtocolError(
                f"user {int(u)}: only {n_eligible} items are eligible as "
                f"negatives, fewer than N={n_negatives}")
        rng = user_rng(seed, _RNG_NEGATIVES, u)
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
    """Group, order, and split in one call per the plan."""
    groups = group_by_user(ds)
    ts = None
    if plan.ordering == "TO":
        if not ds.inter.has_field(time_field):
            raise ProtocolError(f"temporal ordering requires the {time_field!r} field")
        ts = ds.inter.columns[time_field]
    ordered = order_rows(groups, plan.ordering, plan.seed, ts)
    return split_rows(ordered, plan)
