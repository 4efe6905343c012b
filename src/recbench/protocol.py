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
valid candidates are drawn independently of the test ones.  A stream is
defined as PCG64 seeded by ``SeedSequence([seed, purpose, user])``
(:func:`user_rng`).  :func:`user_streams` computes every user's starting
state in one vectorised pass of numpy's documented seeding algorithm
(SeedSequence's hash mixing, ``generate_state(4, uint64)``, then PCG64's
``srandom``) and sets it on one reused ``Generator``; a test checks the
pass against :func:`user_rng`, so a numpy release that changes the
algorithm fails it.

Per-user grouping has one implementation, :func:`user_index`: one sort of
``user * width + value`` keys gives each user's sorted distinct values as
CSR arrays.  The split reads it directly: it shuffles each user's segment
of the flat row array in place (RO) or sorts all rows by (user, timestamp)
in one stable ``lexsort`` (TO), and cuts all segments in one vectorised
pass.
Positives, histories, the uniN known-item sets and BPR's training-negative
sampler are read from it too.
A uniN draw never scans the catalog.  Each positive's N negatives are
the ones ``rng.choice(eligible_items, N, replace=False)`` gives on the
user's stream, but no per-user ``choice`` call makes them:
:func:`floyd_choice` replays numpy's no-replacement route (Floyd's
selection with Lemire-bounded draws, then a shuffle whose draws are read
but not applied) for every user at once, from each user's raw words
(:func:`choice_words` of them), in chunks of about ``_CHUNK_ROWS``
positives.  One global binary search over the users' sorted known items
maps each index to its item, and one stable sort merges each user's
draws with its positives.  A user whose draws hit a Lemire rejection, or whose pool
takes numpy's tail-shuffle route (more than 10,000 eligible items and
N > n_eligible // 50), keeps the per-user ``rng.choice`` call.  Tests
pin the pass against ``rng.choice`` (numpy 2.4.6), as ``TestUserStreams``
pins the seeding.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .errors import ProtocolError
from .tables import FieldType

_SETTING_RE = re.compile(r"(RO|TO)_(RS|LS),(full|uni([1-9][0-9]*))\Z")

# purpose tags for per-user RNG stream derivation
_RNG_ORDER = 1
_RNG_NEGATIVES = 2          # test candidates
_RNG_VALID_NEGATIVES = 3    # valid candidates
# (user, positive) rows per uniN sampling pass.  On a 3,000-user uni99 run
# the pass's arrays lifted peak RSS by 3.4 MB at 1024 rows and by 0.7 MB
# at 256; 128 rows lifted it by 0.4 MB but made the stage 8% slower
_CHUNK_ROWS = 256


# SeedSequence's hash-mixing constants (O'Neill's seed_seq, pool of 4 words)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1


def user_rng(seed, purpose, user_id):
    """The stream of one (seed, purpose, user): the definition :func:`user_streams` follows."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), purpose, int(user_id)]))


def _seed_states(seed, purpose, users):
    """``SeedSequence([seed, purpose, user]).generate_state(4, uint64)`` for every user.

    One vectorised pass over all users; returns the four words as four
    uint64 arrays.
    """
    seed = int(seed)
    if seed < 0:
        raise ProtocolError(f"seed must be non-negative, got {seed}")
    users = np.asarray(users, dtype=np.int64)
    assert ((users >= 0) & (users <= _MASK32)).all(), "user IDs are remapped below 2**32"
    n = len(users)
    # the entropy words of [seed, purpose, user]: seed in 32-bit words, low first
    words = [seed & _MASK32]
    while seed > _MASK32:
        seed >>= 32
        words.append(seed & _MASK32)
    entropy = [np.full(n, w, np.uint32) for w in words + [purpose]] + [users.astype(np.uint32)]
    const, mult = _INIT_A, _MULT_A

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * mult & _MASK32
        value = value * const
        return value ^ (value >> 16)

    def mix(x, y):
        r = x * _MIX_L - y * _MIX_R
        return r ^ (r >> 16)

    pool = [hashmix(entropy[i] if i < len(entropy) else np.zeros(n, np.uint32))
            for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if dst != src:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:  # entropy beyond the pool mixes into every word
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    # generate_state(4, uint64): 8 words hashed from the cycled pool, paired low first
    const, mult = _INIT_B, _MULT_B
    out = [hashmix(pool[i % 4]).astype(np.uint64) for i in range(8)]
    return [out[2 * k] | out[2 * k + 1] << np.uint64(32) for k in range(4)]


def user_streams(seed, purpose, users):
    """Yield, for each of ``users``, a Generator in ``user_rng(seed, purpose, user)``'s state.

    The same Generator object is yielded each time, reset to the next
    user's state, so draw from it before advancing.
    """
    s_hi, s_lo, i_hi, i_lo = _seed_states(seed, purpose, users)
    rng = np.random.Generator(np.random.PCG64(0))
    state = {"bit_generator": "PCG64", "state": {}, "has_uint32": 0, "uinteger": 0}
    # per-user Python ints: .tolist() on the four arrays would hold them all
    # at once, about 0.6 MB more peak RSS on a 3,000-user uni99 run
    for k in range(len(s_hi)):
        a, b, c, d = s_hi.item(k), s_lo.item(k), i_hi.item(k), i_lo.item(k)
        # PCG64's srandom over the 128-bit (state, sequence) pair
        inc = (c << 65 | d << 1 | 1) & _MASK128
        state["state"] = {"state": ((a << 64 | b) + inc) * _PCG_MULT + inc & _MASK128,
                          "inc": inc}
        rng.bit_generator.state = state
        yield rng


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
        if self.seed < 0:
            raise ProtocolError(f"seed must be non-negative, got {self.seed}")
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
    per_user_draws: int = 0        # uni only: users drawn with rng.choice itself

    def describe(self):
        return self.mode if self.mode == "full" else f"uni{self.n_per_pos}"


def user_index(users, values, width):
    """Each user's sorted distinct ``values`` (in ``[0, width)``) as CSR arrays.

    Returns ascending user IDs, ``indptr`` and the values: the i-th user's
    are ``values[indptr[i]:indptr[i + 1]]``.  One sort of the keys
    ``user * width + value`` groups, orders and de-duplicates them.
    """
    keys = sorted_distinct(np.asarray(users, dtype=np.int64) * width + values)
    owners = keys // width
    starts = np.flatnonzero(np.diff(owners, prepend=-1))
    keys -= owners * width
    return owners[starts], np.append(starts, len(keys)), keys


def sorted_distinct(keys, kind=None):
    """The sorted distinct entries of non-negative int64 ``keys``, sorted in
    place (by ``kind``) unless one pass finds them strictly increasing."""
    if np.any(keys[1:] <= keys[:-1]):
        keys.sort(kind=kind)
        keys = keys[np.diff(keys, prepend=-1) != 0]
    return keys


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


# Generator.choice(pool, n, replace=False) shuffles a whole arange, not
# Floyd's set, on these pools
def _tail_route(pools, n):
    return (pools > 10000) & (n > pools // 50)


def choice_words(pools, counts, n):
    """Raw words that ``counts`` calls of ``rng.choice(pool, n, replace=False)`` read.

    A call on Floyd's route reads 2n - 1 uint32 draws (2n - 2 when
    ``pool == n``: the first step's bound is 0 and draws nothing), two to a
    word, when no draw is rejected.  A pool on the tail route gets 0.
    """
    pools = np.asarray(pools, np.int64)
    calls = np.asarray(counts, np.int64) * (2 * n - 1 - (pools == n))
    return np.where(_tail_route(pools, n), 0, (calls + 1) // 2)


def _rejected(low, excl):
    """Rows of ``low = (u * excl) mod 2**32`` that hold a draw Lemire's method rejects."""
    r, t = np.nonzero(low < excl)  # the threshold 2**32 mod excl is below excl
    excl = np.broadcast_to(excl, low.shape)[r, t].astype(np.uint64)
    return r[low[r, t] < (1 << 32) % excl]


def floyd_choice(words, pools, counts, n):
    """The sets ``counts[u]`` calls of ``rng.choice(pools[u], n, replace=False)`` draw.

    ``words`` concatenates each user's ``random_raw(choice_words(...)[u])``;
    every pool is at least n and below 2**32.  numpy (2.x) splits each word
    into two uint32 draws, low half first, and a call runs Floyd's
    selection and then a shuffle, each draw bounded by Lemire's method:

    * step t (of n) draws v_t in [0, j_t], j_t = pool - n + t, and keeps
      j_t instead when v_t is already in the set, that is when v_t equals
      an earlier v_s, or an earlier j_s whose step kept j_s;
    * the shuffle then draws n - 1 more values (bounds n - 1 .. 1), read
      and checked here but not applied: the caller sorts the set.

    A draw u with bound j is rejected, and another one read, when
    ``(u * (j + 1)) mod 2**32 < 2**32 mod (j + 1)``.  Returns ``(sets, ok)``:
    row r of the ``(sum(counts), n)`` int64 array is the r-th call's set,
    users in order.  ``ok[u]`` is False when any of the user's draws is
    rejected (every later draw shifts) or its pool takes the tail route;
    those users' rows are meaningless, and they draw with ``rng.choice``.
    """
    pools = np.asarray(pools, np.int64)
    counts = np.asarray(counts, np.int64)
    n_words = choice_words(pools, counts, n)
    row_user = np.repeat(np.arange(len(pools)), counts)
    call = np.arange(len(row_user)) - np.repeat(np.cumsum(counts) - counts, counts)
    # each row's first draw in the uint32 stream; when pool == n it is one
    # earlier, read by the bound-0 step, which ignores it
    first = (2 * (np.cumsum(n_words) - n_words) - (pools == n))[row_user]
    first += call * (2 * n - 1 - (pools == n))[row_user]
    # one spare draw on each side keeps every row's window inside the array
    u32 = np.concatenate([np.zeros(1, np.uint32),
                          words.astype("<u8", copy=False).view("<u4"),
                          np.zeros(2 * n - 2, np.uint32)])
    windows = np.lib.stride_tricks.sliding_window_view(u32, 2 * n - 1)
    draws = windows[np.minimum(first + 1, len(windows) - 1)]
    start = pools[row_user, None] - n
    # the shuffle's draws: uint32 products keep just the low half
    excl = np.arange(n, 1, -1, dtype=np.uint32)
    rejected = [_rejected(draws[:, n:] * excl, excl)]
    excl = (start + np.arange(1, n + 1)).astype(np.uint64)
    v = draws[:, :n] * excl
    rejected.append(_rejected(v & _MASK32, excl))
    ok = ~_tail_route(pools, n)
    ok[row_user[np.concatenate(rejected)]] = False
    v >>= 32
    v = v.view(np.int64)
    # v_t equals an earlier v_s: the later entries of each run of equal
    # values, once each row is sorted by (value, step)
    shift = (n - 1).bit_length()
    keys = v << shift
    keys |= np.arange(n)
    keys.sort(axis=1)
    values = keys >> shift
    r, t = np.nonzero(values[:, 1:] == values[:, :-1])
    kept_j = np.zeros(v.shape, bool)
    kept_j[r, keys[r, t + 1] & (1 << shift) - 1] = True
    # v_t equals j_s = start + s for an earlier s: follow step s's outcome
    # until none changes
    r, t = np.nonzero(v >= start)
    s = v[r, t] - start[r, 0]
    r, t, s = r[s < t], t[s < t], s[s < t]
    while (follows := kept_j[r, s] & ~kept_j[r, t]).any():
        kept_j[r[follows], t[follows]] = True
    r, t = np.nonzero(kept_j)
    v[r, t] = start[r, 0] + t
    return v, ok


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
    bounds = ptr.tolist()
    positives = [items[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]
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
    # the number of eligible items under known[i], and adding
    # k * (n_items + 1) for the k-th known user makes one sorted array
    k_users, k_ptr, known = user_index(
        np.tile(ds.user_ids()[rows], 2),
        np.concatenate([ds.item_ids()[rows], np.zeros(len(rows), np.int64)]),
        n_items)
    k_sizes = np.diff(k_ptr)
    below = known - np.arange(len(known)) + np.repeat(
        k_ptr[:-1] + np.arange(len(k_users)) * (n_items + 1), k_sizes)
    k = np.searchsorted(k_users, users)
    pools = n_items - k_sizes[k]
    short = np.flatnonzero(pools < n_negatives)
    if len(short):
        u = short[0]
        raise ProtocolError(
            f"user {ds.vocabs[ds.user_field].decode(users[u])!r}: only {pools[u]} "
            f"items are eligible as negatives, fewer than N={n_negatives}")
    counts = np.diff(ptr)
    purpose = _RNG_NEGATIVES if target == "test" else _RNG_VALID_NEGATIVES
    streams = user_streams(seed, purpose, users)
    n_words = choice_words(pools, counts, n_negatives).tolist()
    candidates, per_user = [], 0
    # chunks of about _CHUNK_ROWS (user, positive) rows bound the memory
    cuts = np.flatnonzero(np.diff(ptr[:-1] // _CHUNK_ROWS, prepend=-1)).tolist()
    for a, b in zip(cuts, [*cuts[1:], len(users)]):
        words = [next(streams).bit_generator.random_raw(w) for w in n_words[a:b]]
        sets, ok = floyd_choice(np.concatenate(words), pools[a:b], counts[a:b],
                                n_negatives)
        redo = (a + np.flatnonzero(~ok)).tolist()  # the rare user numpy's way
        per_user += len(redo)
        for u in redo:
            rng = user_rng(seed, purpose, users[u])
            for r in range(ptr[u] - ptr[a], ptr[u + 1] - ptr[a]):
                sets[r] = rng.choice(pools[u], n_negatives, replace=False)
        # base + idx keys, base = k * (n_items + 1) for the k-th known user:
        # the idx-th eligible item skips each known item with below <= idx
        base = k[a:b] * (n_items + 1)
        sets.sort(axis=1)  # ascending queries search faster
        sets += np.repeat(base, counts[a:b])[:, None]
        sets += np.searchsorted(below, sets, side="right")
        sets -= np.repeat(k_ptr[k[a:b]], counts[a:b])[:, None]
        # base + item keys of the draws, then of the positives: two ascending
        # runs (one per call when a user has several), which a stable sort
        # merges in about linear time; draws for two positives may repeat
        keys = sorted_distinct(np.concatenate([sets.ravel(), items[ptr[a]:ptr[b]]
                                               + np.repeat(base, counts[a:b])]),
                               kind="stable")
        at = np.searchsorted(keys, np.append(base, base[-1] + n_items))
        keys -= np.repeat(base, np.diff(at))
        at = at.tolist()
        candidates += [keys[lo:hi] for lo, hi in zip(at[:-1], at[1:])]
    return CandidateSet("uni", users, positives, candidates, n_items, n_negatives,
                        per_user)


def make_split(ds: Dataset, plan: EvalPlan, time_field="timestamp") -> SplitResult:
    """Order each user's rows and split them into train/valid/test per the plan.

    One :func:`user_index` call groups the row indices by user, in file
    order.  Under RO each user's segment of that flat array is shuffled in
    place; under TO one stable ``lexsort`` orders all rows by user, then
    timestamp.  One vectorised pass then cuts every segment at its two
    split points.
    """
    user_col = ds.user_ids()
    n = len(user_col)
    if n == 0:
        raise ProtocolError("cannot group an empty interaction table")
    if plan.ordering == "TO":
        if not ds.inter.has_field(time_field):
            raise ProtocolError(f"temporal ordering requires the {time_field!r} field")
        ftype = ds.inter.field(time_field).ftype
        if ftype != FieldType.FLOAT:
            raise ProtocolError(f"time_field {time_field!r} is a {ftype.value} field; "
                                "temporal ordering needs a float field")
    users, indptr, rows = user_index(user_col, np.arange(n), n)
    if plan.ordering == "TO":  # lexsort is stable: timestamp ties keep file order
        rows = np.lexsort((np.asarray(ds.inter.columns[time_field], dtype=np.float64),
                           user_col))
    else:
        for lo, hi, rng in zip(indptr[:-1].tolist(), indptr[1:].tolist(),
                               user_streams(plan.seed, _RNG_ORDER, users)):
            seg = rows[lo:hi]
            seg[:] = seg[rng.permutation(hi - lo)]
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
