"""Grouping, ordering, splitting, and candidate construction."""

from fractions import Fraction

import numpy as np
import pytest

from recbench import protocol
from recbench.errors import ProtocolError
from recbench.protocol import (EvalPlan, build_candidates, history_by_user,
                               make_split, parse_eval_setting)
from tests.conftest import build_dataset


def _random_dataset(rng, n_rows=None, n_users=6, n_items=10, timestamps=True):
    n = n_rows or int(rng.integers(4, 60))
    users = [f"u{v}" for v in rng.integers(0, n_users, size=n)]
    items = [f"i{v}" for v in rng.integers(0, n_items, size=n)]
    ts = rng.integers(0, 50, size=n).astype(float) if timestamps else None
    return build_dataset(users, items, timestamps=ts)


class TestParseEvalSetting:
    def test_ro_rs_full(self):
        plan = parse_eval_setting("RO_RS,full")
        assert (plan.ordering, plan.splitting, plan.candidates) == ("RO", "RS", "full")
        assert plan.ratios == (0.8, 0.1, 0.1)

    def test_to_ls_uni99(self):
        plan = parse_eval_setting("TO_LS,uni99")
        assert (plan.ordering, plan.splitting) == ("TO", "LS")
        assert plan.candidates == "uni" and plan.n_negatives == 99

    @pytest.mark.parametrize("bad", ["XX_YY", "RO_RS", "RO_RS,uni0",
                                     "ro_rs,full", "RO_RS,full,extra"])
    def test_unparseable(self, bad):
        with pytest.raises(ProtocolError):
            parse_eval_setting(bad)

    def test_describe_round_trip(self):
        for spec in ("RO_RS,full", "TO_LS,uni99", "RO_LS,uni5", "TO_RS,full"):
            assert parse_eval_setting(spec).describe() == spec

    def test_bad_ratios(self):
        with pytest.raises(ProtocolError):
            EvalPlan("RO", "RS", ratios=(0.5, 0.4, 0.2))

    def test_negative_seed(self):
        with pytest.raises(ProtocolError, match="non-negative"):
            parse_eval_setting("RO_RS,full", seed=-1)


def _ordered(ds, spec):
    """A one-user dataset's rows in split order: train, then valid, then test."""
    split = make_split(ds, parse_eval_setting(spec))
    return np.concatenate([split.train, split.valid, split.test])


class TestGroupByUser:
    """``make_split`` groups rows by ascending user ID, each in file order."""

    def test_two_users(self):
        ds = build_dataset(["a", "b", "a", "b"], ["x", "y", "z", "w"],
                           timestamps=[1.0] * 4)
        split = make_split(ds, parse_eval_setting("TO_LS,full"))
        np.testing.assert_array_equal(split.train, [0, 1])
        np.testing.assert_array_equal(split.valid, [])
        np.testing.assert_array_equal(split.test, [2, 3])

    def test_single_user(self):
        ds = build_dataset(["a", "a", "a"], ["x", "y", "z"], timestamps=[1.0] * 3)
        np.testing.assert_array_equal(_ordered(ds, "TO_LS,full"), [0, 1, 2])

    def test_sizes_sum_to_row_count(self, rng):
        for _ in range(30):
            ds = _random_dataset(rng)
            # counting oracle
            counts = {}
            for u in ds.user_ids():
                counts[int(u)] = counts.get(int(u), 0) + 1
            for spec in ("RO_RS,full", "TO_LS,full"):
                split = make_split(ds, parse_eval_setting(spec, seed=1))
                got = {}
                for part in (split.train, split.valid, split.test):
                    for u in ds.user_ids()[part]:
                        got[int(u)] = got.get(int(u), 0) + 1
                assert got == counts


class TestOrderRows:
    """``make_split`` orders each user's rows before cutting them."""

    def test_temporal_sorts_ascending(self):
        ds = build_dataset(["a", "a", "a"], ["x", "y", "z"],
                           timestamps=[5.0, 1.0, 3.0])
        np.testing.assert_array_equal(_ordered(ds, "TO_LS,full"), [1, 2, 0])

    def test_random_is_reproducible(self):
        ds = build_dataset([f"u{i%4}" for i in range(20)],
                           [f"i{i}" for i in range(20)])
        a = make_split(ds, parse_eval_setting("RO_LS,full", seed=9))
        b = make_split(ds, parse_eval_setting("RO_LS,full", seed=9))
        c = make_split(ds, parse_eval_setting("RO_LS,full", seed=10))
        for x, y in zip((a.train, a.valid, a.test), (b.train, b.valid, b.test)):
            np.testing.assert_array_equal(x, y)
        assert any(not np.array_equal(x, y)
                   for x, y in zip((a.train, a.valid, a.test), (c.train, c.valid, c.test)))

    def test_temporal_ties_keep_file_order(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 25))
            ts = rng.integers(0, 4, size=n).astype(float)  # many ties
            ds = build_dataset(["a"] * n, [f"i{i}" for i in range(n)],
                               timestamps=ts)
            # stable-sort oracle on (timestamp, original position)
            oracle = sorted(range(n), key=lambda r: (ts[r], r))
            np.testing.assert_array_equal(_ordered(ds, "TO_LS,full"), oracle)

    def test_to_requires_timestamps(self):
        ds = build_dataset(["a"], ["x"])
        with pytest.raises(ProtocolError, match="timestamp"):
            make_split(ds, parse_eval_setting("TO_RS,full"))


class TestSplitRows:
    def test_ratio_8_1_1_on_group_of_10(self):
        ds = build_dataset(["a"] * 10, [f"i{i}" for i in range(10)])
        split = make_split(ds, EvalPlan("RO", "RS", seed=0))
        assert (len(split.train), len(split.valid), len(split.test)) == (8, 1, 1)

    def test_leave_one_out_on_ordered_group(self):
        ds = build_dataset(["a"] * 4, ["w", "x", "y", "z"],
                           timestamps=[1.0, 2.0, 3.0, 4.0])
        split = make_split(ds, EvalPlan("TO", "LS", seed=0))
        np.testing.assert_array_equal(split.train, [0, 1])
        np.testing.assert_array_equal(split.valid, [2])
        np.testing.assert_array_equal(split.test, [3])
    def test_leave_one_out_degenerate_groups(self):
        ds = build_dataset(["solo", "duo", "duo"], ["x", "y", "z"],
                           timestamps=[1.0, 1.0, 2.0])
        plan = EvalPlan("TO", "LS", seed=0)
        split = make_split(ds, plan)
        assert len(split.valid) == 0
        assert len(split.test) == 1  # only the 2-row user contributes
        assert len(split.train) == 2

    def test_partition_property(self, rng):
        for _ in range(40):
            ds = _random_dataset(rng)
            for spec in ("RO_RS,full", "TO_RS,full", "RO_LS,full", "TO_LS,full"):
                plan = parse_eval_setting(spec, seed=int(rng.integers(1000)))
                split = make_split(ds, plan)
                merged = np.concatenate([split.train, split.valid, split.test])
                assert len(merged) == len(ds.inter)
                assert len(np.unique(merged)) == len(merged)

    def test_rs_floor_remainder_oracle(self, rng):
        for _ in range(40):
            g = int(rng.integers(1, 40))
            ds = build_dataset(["a"] * g, [f"i{i}" for i in range(g)])
            plan = parse_eval_setting("RO_RS,full", seed=3)
            split = make_split(ds, plan)
            # exact-arithmetic oracle for the 8:1:1 ratios
            n_train = int(Fraction(4, 5) * g)
            n_valid = int(Fraction(1, 10) * g)
            assert len(split.train) == n_train
            assert len(split.valid) == n_valid
            assert len(split.test) == g - n_train - n_valid

    def test_to_ls_max_timestamp_in_test(self, rng):
        for _ in range(30):
            ds = _random_dataset(rng)
            plan = parse_eval_setting("TO_LS,full", seed=1)
            split = make_split(ds, plan)
            ts = ds.inter.columns["timestamp"]
            users = ds.user_ids()
            for row in split.test:
                uid = users[row]
                assert ts[row] >= ts[users == uid].max() - 1e-12


def _group_order_split(ds, plan, time_field="timestamp"):
    """Reference split: per-user dicts of row indices, ordered, then cut.

    Returns (train, valid, test), or the ProtocolError message.
    """
    user_col = ds.user_ids()
    groups = {}
    for row, u in enumerate(user_col):
        groups.setdefault(int(u), []).append(row)
    ordered = {}
    for u in sorted(groups):
        rows = np.array(groups[u], dtype=np.int64)
        if plan.ordering == "RO":
            perm = protocol.user_rng(plan.seed, protocol._RNG_ORDER, u).permutation(len(rows))
            ordered[u] = rows[perm]
        else:
            if not ds.inter.has_field(time_field):
                return f"temporal ordering requires the {time_field!r} field"
            ts = np.asarray(ds.inter.columns[time_field], dtype=np.float64)
            ordered[u] = rows[np.argsort(ts[rows], kind="stable")]
    train, valid, test = [], [], []
    for rows in ordered.values():
        g = len(rows)
        if plan.splitting == "RS":
            n_train = int(plan.ratios[0] * g)
            n_valid = int(plan.ratios[1] * g)
            train.append(rows[:n_train])
            valid.append(rows[n_train:n_train + n_valid])
            test.append(rows[n_train + n_valid:])
        elif g == 1:
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

    return cat(train), cat(valid), cat(test)


class TestSplitOracle:
    """``make_split`` equals the per-user dict pipeline it replaced, bit for bit."""

    def _assert_matches(self, ds, plan):
        want = _group_order_split(ds, plan)
        if isinstance(want, str):
            with pytest.raises(ProtocolError, match=f"^{want}$"):
                make_split(ds, plan)
            return
        got = make_split(ds, plan)
        for name, a, b in zip(("train", "valid", "test"),
                              (got.train, got.valid, got.test), want):
            np.testing.assert_array_equal(a, b, err_msg=name)
            assert a.dtype == b.dtype, name

    def test_random_datasets(self, rng):
        specs = ("RO_RS", "TO_RS", "RO_LS", "TO_LS")
        for trial in range(80):
            # few timestamp values: ties; up to 30 users: 1-row and 2-row users
            n = int(rng.integers(1, 80))
            users = [f"u{v}" for v in rng.integers(0, int(rng.integers(1, 30)), size=n)]
            items = [f"i{v}" for v in rng.integers(0, 20, size=n)]
            ts = rng.integers(0, 5, size=n).astype(float)
            ds = build_dataset(users, items, timestamps=ts)
            ratios = ((0.8, 0.1, 0.1), (0.6, 0.25, 0.15))[trial % 2]
            for spec in specs:
                plan = parse_eval_setting(spec + ",full", seed=trial, ratios=ratios)
                self._assert_matches(ds, plan)

    def test_degenerate_groups(self):
        ds = build_dataset(["solo", "duo", "duo", "trio", "trio", "trio"],
                           [f"i{k}" for k in range(6)], timestamps=[2.0, 1.0, 1.0, 3.0, 1.0, 2.0])
        for spec in ("RO_RS", "TO_RS", "RO_LS", "TO_LS"):
            for seed in range(5):
                self._assert_matches(ds, parse_eval_setting(spec + ",full", seed=seed))

    def test_missing_timestamp_field(self):
        ds = build_dataset(["a", "a", "b"], ["x", "y", "z"])
        self._assert_matches(ds, parse_eval_setting("TO_LS,full"))
        self._assert_matches(ds, parse_eval_setting("RO_LS,full", seed=3))


class TestTemporalSplitOracle:
    """TO's one ``lexsort`` equals the per-user stable argsort it replaced.

    ``_group_order_split`` orders each user's rows with
    ``argsort(ts[rows], kind="stable")``; the cases mix ties, NaN and
    signed zeros, which compare equal.
    """

    def test_ties_nan_and_signed_zero(self, rng):
        values = np.array([np.nan, -0.0, 0.0, 1.0, 2.0, -3.5])
        for trial in range(400):
            n = int(rng.integers(1, 60))
            users = [f"u{v}" for v in rng.integers(0, int(rng.integers(1, 12)), size=n)]
            ts = values[rng.integers(0, len(values), size=n)]
            ds = build_dataset(users, [f"i{k}" for k in range(n)], timestamps=ts)
            for spec in ("TO_RS,full", "TO_LS,full"):
                plan = parse_eval_setting(spec, seed=trial)
                got = make_split(ds, plan)
                for a, b in zip((got.train, got.valid, got.test), _group_order_split(ds, plan)):
                    np.testing.assert_array_equal(a, b)


class TestUserStreams:
    """The one-pass stream states equal ``SeedSequence`` -> ``default_rng``.

    This pins numpy's seeding algorithm: a release that changes it fails here.
    """

    SEEDS = (0, 1, 2**31, 2**32 - 1, 2**32, 2**64)

    def test_states_and_draws_match_user_rng(self):
        users = np.concatenate([np.arange(3001), [2**31, 2**32 - 1]])
        for seed in self.SEEDS:
            for purpose in (protocol._RNG_ORDER, protocol._RNG_NEGATIVES,
                            protocol._RNG_VALID_NEGATIVES):
                for u, got in zip(users.tolist(),
                                  protocol.user_streams(seed, purpose, users)):
                    want = protocol.user_rng(seed, purpose, u)
                    assert got.bit_generator.state == want.bit_generator.state, (seed, purpose, u)
                    e = 99 + u % 997
                    np.testing.assert_array_equal(got.choice(e, 99, replace=False),
                                                  want.choice(e, 99, replace=False))
                    n = 1 + u % 50
                    np.testing.assert_array_equal(got.permutation(n), want.permutation(n))

    def test_negative_seed(self):
        with pytest.raises(ProtocolError, match="non-negative"):
            next(protocol.user_streams(-1, protocol._RNG_ORDER, [1]))


def _choice_model(u32, pool, n):
    """``Generator.choice(pool, n, replace=False)`` on Floyd's route, read from uint32 draws.

    A plain loop over numpy's steps: Floyd's selection, then the shuffle,
    each draw bounded by Lemire's method.  Returns the indices in numpy's
    order, the number of draws read and whether any draw was rejected.
    """
    at, rejected = 0, False

    def bounded(bound):  # a bound of 0 reads nothing
        nonlocal at, rejected
        while bound:
            m = int(u32[at]) * (bound + 1)
            at += 1
            if m % 2**32 >= 2**32 % (bound + 1):
                return m >> 32
            rejected = True
        return 0

    chosen, out = set(), []
    for j in range(pool - n, pool):
        v = bounded(j)
        v = j if v in chosen else v
        chosen.add(v)
        out.append(v)
    for i in range(n - 1, 0, -1):
        k = bounded(i)
        out[i], out[k] = out[k], out[i]
    return out, at, rejected


class TestFloydChoice:
    """``floyd_choice`` gives ``rng.choice``'s sets, and flags every user it cannot.

    Each user's stream is checked three ways: :func:`_choice_model` must
    equal ``rng.choice`` call by call, ``ok`` must be False exactly where
    the model reads a rejected draw or the pool takes numpy's tail route,
    and every ok user's rows must hold ``rng.choice``'s sets.  This pins
    numpy's ``choice``: a release that changes it fails here.
    """

    def _check(self, n, users):
        """``users``: (pool, calls, seed, purpose, user ID) per user."""
        pools = [pool for pool, *_ in users]
        counts = [calls for _, calls, *_ in users]
        n_words = protocol.choice_words(pools, counts, n)
        words = [protocol.user_rng(*u[2:]).bit_generator.random_raw(w)
                 for u, w in zip(users, n_words)]
        sets, ok = protocol.floyd_choice(np.concatenate(words), pools, counts, n)
        assert sets.shape == (sum(counts), n) and sets.dtype == np.int64
        row = 0
        for (pool, calls, *key), good in zip(users, ok.tolist()):
            rng = protocol.user_rng(*key)
            raw = protocol.user_rng(*key).bit_generator.random_raw(4 * calls * n + 64)
            u32 = np.stack([raw & 0xFFFFFFFF, raw >> 32], axis=1).ravel()
            tail = pool > 10000 and n > pool // 50
            at, rejected = 0, False
            for _ in range(calls):
                want = rng.choice(pool, n, replace=False)
                if not tail:
                    got, used, rej = _choice_model(u32[at:], pool, n)
                    assert got == want.tolist(), (pool, n, key)
                    at, rejected = at + used, rejected or rej
                if good:
                    np.testing.assert_array_equal(np.sort(sets[row]), np.sort(want))
                row += 1
            assert good == (not tail and not rejected), (pool, n, key)
        return ok

    def test_pools_and_sizes(self):
        pick = np.random.default_rng(23)
        purposes = (protocol._RNG_NEGATIVES, protocol._RNG_VALID_NEGATIVES)
        seeds = (0, 2020, 2**32 + 5, 2**64 - 1)
        user_ids = (1, 2, 999, 2**31, 2**32 - 1)
        pools = (1, 2, 3, 7, 99, 100, 101, 1000, 9999, 10000, 10001, 20000, 59999, 60000)
        # n = pool, and both sides of the tail route's n > pool // 50 at
        # 10001, 20000 and 60000
        for n in (1, 2, 3, 7, 99, 100, 200, 201, 400, 401, 1199, 1200, 1201):
            users = [(pool, int(pick.integers(1, 4)), seeds[k % 4], purposes[k % 2],
                      user_ids[k % 5])
                     for k, pool in enumerate(p for p in pools if p >= n)]
            users += [(n, 2, seeds[n % 4], purposes[0], n)]
            self._check(n, users)

    def test_pools_near_2_31(self):
        # Lemire rejects about half the draws on these bounds
        for n in (1, 2, 3):
            users = [(pool, calls, 7, protocol._RNG_NEGATIVES, u)
                     for u, (pool, calls) in enumerate(
                         [(p, c) for p in (2**31 - 1, 2**31, 2**31 + 1, 2**32 - 2)
                          for c in (1, 2, 3)] * 3)]
            ok = self._check(n, users)
            assert 0 < ok.sum() < len(ok)  # both outcomes occur

    def test_rejected_shuffle_draw(self):
        # user 387's first call rejects a shuffle draw and no Floyd draw, so
        # its second call starts one draw later than 2n - 2
        key = (7, protocol._RNG_NEGATIVES, 387)
        raw = protocol.user_rng(*key).bit_generator.random_raw(10000)
        u32 = np.stack([raw & 0xFFFFFFFF, raw >> 32], axis=1).ravel()
        assert _choice_model(u32, 10000, 10000)[1:] == (19999, True)
        self._check(10000, [(10000, 2, *key), (10000, 1, 7, protocol._RNG_NEGATIVES, 5)])

    def test_build_candidates_draws_tail_route_users_one_by_one(self):
        # six users with ten rows each over 60 items, plus 10,001 one-row
        # users, which LS keeps in train: every evaluated user's pool is
        # above 10,000, and N = 300 is above pool // 50, N = 200 is not
        users = [f"u{k % 6}" for k in range(60)] + [f"z{k}" for k in range(10001)]
        items = [f"i{k}" for k in range(60)] + [f"j{k}" for k in range(10001)]
        ds = build_dataset(users, items)
        split = make_split(ds, parse_eval_setting("RO_LS,uni300", seed=5))
        for target in ("valid", "test"):
            for n, per_user in ((300, 6), (200, 0)):
                got = build_candidates(ds, split, "uni", seed=5, n_negatives=n,
                                       target=target)
                want = _catalog_scan_candidates(ds, split, 5, n, target)
                assert got.per_user_draws == per_user
                np.testing.assert_array_equal(got.users, want[0])
                for x, y in zip(got.candidates, want[2]):
                    np.testing.assert_array_equal(x, y)


class TestBuildCandidates:
    def test_full_mode_counts(self):
        ds = build_dataset(["a", "a", "b", "b"], ["w", "x", "y", "z"])
        plan = parse_eval_setting("RO_RS,full", seed=0)
        split = make_split(ds, plan)
        cand = build_candidates(ds, split, "full", seed=0)
        assert cand.mode == "full"
        assert cand.n_items == ds.n_items
        assert cand.candidates is None

    def test_uni_negatives_never_collide(self, rng):
        for trial in range(20):
            n = 40
            users = [f"u{v}" for v in rng.integers(0, 5, size=n)]
            items = [f"i{v}" for v in rng.integers(0, 30, size=n)]
            ds = build_dataset(users, items)
            plan = parse_eval_setting("RO_LS,uni5", seed=trial)
            split = make_split(ds, plan)
            cand = build_candidates(ds, split, "uni", seed=trial, n_negatives=5)
            known = history_by_user(
                ds, np.concatenate([split.train, split.valid, split.test]))
            for u, pos, cands in zip(cand.users, cand.positives, cand.candidates):
                negatives = np.setdiff1d(cands, pos)
                overlap = np.intersect1d(negatives, known[int(u)])
                assert overlap.size == 0
                assert 0 not in cands

    def test_uni_error_when_catalog_too_small(self):
        ds = build_dataset(["a", "a"], ["x", "y"])  # 2 items, both known
        plan = parse_eval_setting("RO_LS,uni99", seed=0)
        split = make_split(ds, plan)
        with pytest.raises(ProtocolError, match="^user 'a': only 0 items"):
            build_candidates(ds, split, "uni", seed=0, n_negatives=99)

    def test_deterministic_under_seed(self):
        ds = build_dataset([f"u{i%5}" for i in range(50)],
                           [f"i{i%20}" for i in range(50)])
        plan = parse_eval_setting("RO_LS,uni3", seed=5)
        split = make_split(ds, plan)
        a = build_candidates(ds, split, "uni", seed=5, n_negatives=3)
        b = build_candidates(ds, split, "uni", seed=5, n_negatives=3)
        for x, y in zip(a.candidates, b.candidates):
            np.testing.assert_array_equal(x, y)

    def test_negative_sampling_is_uniform(self):
        # frequency oracle: each eligible item within 3 sigma of uniform.
        # only user a (2 rows) reaches the test split under LS.
        users = ["a", "a"] + [f"z{k}" for k in range(18)]
        items = ["i0", "i1"] + [f"e{k}" for k in range(18)]
        ds = build_dataset(users, items)
        plan = parse_eval_setting("RO_LS,uni5", seed=0)
        split = make_split(ds, plan)
        known = history_by_user(ds, np.concatenate(
            [split.train, split.valid, split.test]))[1]
        eligible = np.setdiff1d(np.arange(1, ds.n_items), known)
        n_draws = 20000
        counts = {}
        for seed in range(n_draws):
            cand = build_candidates(ds, split, "uni", seed=seed, n_negatives=5)
            assert list(cand.users) == [1]
            negs = np.setdiff1d(cand.candidates[0], cand.positives[0])
            assert negs.size == 5
            for item in negs:
                counts[int(item)] = counts.get(int(item), 0) + 1
        assert set(counts) <= {int(i) for i in eligible}
        p = 5 / len(eligible)
        expected = n_draws * p
        sigma = np.sqrt(n_draws * p * (1 - p))
        for item in eligible:
            assert abs(counts.get(int(item), 0) - expected) <= 3 * sigma

    def test_valid_target(self):
        ds = build_dataset(["a"] * 10, [f"i{i}" for i in range(10)])
        plan = parse_eval_setting("RO_RS,full", seed=0)
        split = make_split(ds, plan)
        cand = build_candidates(ds, split, "full", seed=0, target="valid")
        assert len(cand.users) == 1

    @pytest.mark.parametrize("mode", ["full", "uni"])
    def test_empty_target(self, mode):
        # 1-row users only: LS puts every row in train
        ds = build_dataset(["a", "b", "c"], ["x", "y", "z"])
        split = make_split(ds, parse_eval_setting("RO_LS,uni1", seed=0))
        assert len(split.valid) == 0 and len(split.test) == 0
        cand = build_candidates(ds, split, mode, seed=0, n_negatives=1, target="valid")
        assert len(cand.users) == 0
        assert cand.positives == []

    def test_valid_and_test_negatives_differ(self):
        users = [f"u{k % 20}" for k in range(200)]
        items = [f"i{k}" for k in range(200)]
        ds = build_dataset(users, items)
        split = make_split(ds, parse_eval_setting("RO_LS,uni10", seed=0))
        valid = build_candidates(ds, split, "uni", seed=0, n_negatives=10, target="valid")
        test = build_candidates(ds, split, "uni", seed=0, n_negatives=10, target="test")
        np.testing.assert_array_equal(valid.users, test.users)
        assert len(valid.users) == 20
        for vp, vc, tp, tc in zip(valid.positives, valid.candidates,
                                  test.positives, test.candidates):
            assert not np.array_equal(np.setdiff1d(vc, vp), np.setdiff1d(tc, tp))


def _catalog_scan_candidates(ds, split, seed, n_negatives, target):
    """Reference sampler: scan the whole catalog for each user's eligible items.

    Returns (users, positives, candidates), or the ProtocolError message.
    """
    target_rows = split.test if target == "test" else split.valid
    all_rows = np.concatenate([split.train, split.valid, split.test])
    user_col, item_col = ds.user_ids(), ds.item_ids()
    users = np.unique(user_col[target_rows])
    catalog = np.arange(1, ds.n_items, dtype=np.int64)
    positives, candidates = [], []
    for u in users:
        p = np.unique(item_col[target_rows][user_col[target_rows] == u])
        known = np.unique(item_col[all_rows][user_col[all_rows] == u])
        eligible = catalog[~np.isin(catalog, known)]
        if len(eligible) < n_negatives:
            return (f"user {ds.vocabs['user_id'].decode(u)!r}: only "
                    f"{len(eligible)} items are eligible "
                    f"as negatives, fewer than N={n_negatives}")
        purpose = (protocol._RNG_NEGATIVES if target == "test"
                   else protocol._RNG_VALID_NEGATIVES)
        rng = protocol.user_rng(seed, purpose, u)
        negs = [rng.choice(eligible, size=n_negatives, replace=False) for _ in p]
        positives.append(p)
        candidates.append(np.unique(np.concatenate([p] + negs)))
    return users, positives, candidates


class TestSamplerOracle:
    """The index-based uniN draw equals the catalog scan it replaced."""

    def _assert_matches(self, ds, split, seed, n_negatives):
        for target in ("valid", "test"):
            want = _catalog_scan_candidates(ds, split, seed, n_negatives, target)
            if isinstance(want, str):
                with pytest.raises(ProtocolError, match=f"^{want}$"):
                    build_candidates(ds, split, "uni", seed=seed,
                                     n_negatives=n_negatives, target=target)
                continue
            got = build_candidates(ds, split, "uni", seed=seed,
                                   n_negatives=n_negatives, target=target)
            users, positives, candidates = want
            np.testing.assert_array_equal(got.users, users)
            assert got.users.dtype == users.dtype
            for name, a, b in (("positives", got.positives, positives),
                               ("candidates", got.candidates, candidates)):
                assert len(a) == len(b), name
                for x, y in zip(a, b):
                    np.testing.assert_array_equal(x, y)
                    assert x.dtype == y.dtype, name

    def test_random_datasets(self, rng):
        for trial in range(60):
            n = int(rng.integers(10, 120))
            users = [f"u{v}" for v in rng.integers(0, 8, size=n)]
            # about one row in twenty has a missing item token (ID 0)
            items = [None if rng.random() < 0.05 else f"i{v}"
                     for v in rng.integers(0, 40, size=n)]
            ds = build_dataset(users, items)
            spec = ("RO_RS", "RO_LS")[trial % 2] + f",uni{int(rng.integers(1, 8))}"
            plan = parse_eval_setting(spec, seed=trial)
            self._assert_matches(ds, make_split(ds, plan), trial, plan.n_negatives)

    def test_several_target_positives_under_rs(self, rng):
        users = [f"u{k % 4}" for k in range(160)]
        items = [f"i{v}" for v in rng.integers(0, 200, size=160)]
        ds = build_dataset(users, items)
        split = make_split(ds, parse_eval_setting("RO_RS,uni9", seed=2))
        cand = build_candidates(ds, split, "uni", seed=2, n_negatives=9)
        assert max(len(p) for p in cand.positives) > 1
        self._assert_matches(ds, split, 2, 9)

    def test_missing_item_token_in_history(self):
        users = ["a"] * 6 + ["b"] * 4
        items = ["i0", None, "i1", "i2", "i3", "i4", "i5", "i6", None, "i7"]
        ds = build_dataset(users, items)
        assert 0 in ds.item_ids()
        split = make_split(ds, parse_eval_setting("RO_LS,uni3", seed=1))
        self._assert_matches(ds, split, 1, 3)

    def test_exactly_n_eligible(self):
        # user a knows 7 of 10 catalog items; z7..z9 are 1-row users,
        # which LS keeps wholly in train
        users = ["a"] * 7 + ["z7", "z8", "z9"]
        items = [f"i{k}" for k in range(10)]
        ds = build_dataset(users, items)
        split = make_split(ds, parse_eval_setting("RO_LS,uni3", seed=4))
        self._assert_matches(ds, split, 4, 3)
        cand = build_candidates(ds, split, "uni", seed=4, n_negatives=3)
        assert len(cand.candidates[0]) == 4  # 1 positive + all 3 eligible
        self._assert_matches(ds, split, 4, 4)  # one too many: the error

    def test_too_few_eligible_names_the_raw_user(self):
        # raw user "7" has the internal ID 1: the error names the raw token
        users = ["7"] * 7 + ["1", "2", "3"]
        ds = build_dataset(users, [f"i{k}" for k in range(10)])
        assert ds.vocabs["user_id"].encode("7") == 1
        split = make_split(ds, parse_eval_setting("RO_LS,uni4", seed=4))
        with pytest.raises(ProtocolError, match="^user '7': only 3 items are eligible"):
            build_candidates(ds, split, "uni", seed=4, n_negatives=4)
