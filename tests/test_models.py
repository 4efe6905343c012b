"""Model zoo: losses, training, scoring, and state round trips."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from recbench.batch import Batch
from recbench.dataset import set_label_by_threshold
from recbench.errors import CheckpointError, ModelError
from recbench.models import (BPRModel, EASEModel, FMModel, ItemKNNModel,
                             PopularityModel, TrainConfig, bpr_loss,
                             bpr_loss_grad, build_model, load_state,
                             margin_loss, save_state)
from recbench.models import losses
from recbench.models.base import _add_rows
from recbench.models.itemitem import binary_interaction_matrix
from recbench.protocol import build_candidates, make_split, parse_eval_setting
from recbench.ranking import row_cells
from tests.conftest import build_dataset


def implicit_ds(rng, n_users=20, n_items=15, n_rows=120, ratings=False):
    users = [f"u{v}" for v in rng.integers(0, n_users, size=n_rows)]
    items = [f"i{v}" for v in rng.integers(0, n_items, size=n_rows)]
    r = rng.integers(1, 6, size=n_rows).astype(float) if ratings else None
    ds = build_dataset(users, items, ratings=r)
    if ratings:
        ds = set_label_by_threshold(ds, "rating", 4.0)
    return ds


def all_rows(ds):
    return np.arange(len(ds.inter))


def run_epochs(model, rng, n):
    losses = []
    for _ in range(n):
        epoch = [model.calculate_loss(b) for b in model.epoch_batches(rng)]
        losses.append(float(np.mean(epoch)))
    return losses


def fit_closed_form(model):
    assert model.calculate_loss(model.train_batch()) == 0.0
    return model


def relative_error(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-8)


# ---------------------------------------------------------------------------
# losses


class TestBprLoss:
    def test_equal_scores_ln2(self):
        assert bpr_loss(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == \
            pytest.approx(math.log(2), abs=1e-12)

    def test_large_gap_matches_high_precision_reference(self):
        value = bpr_loss(np.array([20.0]), np.array([0.0]))
        with mpmath.workdps(50):
            reference = float(mpmath.log(1 + mpmath.exp(-20)))
        assert relative_error(value, reference) < 1e-12
        assert 0 < value < 1e-8

    def test_no_overflow_at_extreme_gaps(self):
        assert bpr_loss(np.array([-500.0]), np.array([500.0])) == \
            pytest.approx(1000.0)
        assert bpr_loss(np.array([250.0]), np.array([-250.0])) > 0.0

    def test_always_positive(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 20))
            pos, neg = rng.standard_normal(n) * 5, rng.standard_normal(n) * 5
            assert bpr_loss(pos, neg) > 0.0

    def test_gradient_matches_finite_differences(self, rng):
        h = 1e-5
        for _ in range(100):
            n = int(rng.integers(1, 10))
            pos, neg = rng.standard_normal(n), rng.standard_normal(n)
            g_pos, g_neg = bpr_loss_grad(pos, neg)
            for t in range(n):
                for arr, grad in ((pos, g_pos), (neg, g_neg)):
                    up, down = arr.copy(), arr.copy()
                    up[t] += h
                    down[t] -= h
                    fd = (bpr_loss(up if arr is pos else pos,
                                   up if arr is neg else neg)
                          - bpr_loss(down if arr is pos else pos,
                                     down if arr is neg else neg)) / (2 * h)
                    assert relative_error(fd, grad[t]) < 1e-5

    def test_length_mismatch(self):
        with pytest.raises(ModelError):
            bpr_loss(np.array([1.0]), np.array([1.0, 2.0]))

    def test_margin_loss_values(self):
        assert margin_loss(np.array([2.0]), np.array([0.0])) == 0.0
        assert margin_loss(np.array([0.0]), np.array([0.0])) == 1.0


def _expit_edge_values():
    """Zeros, infinities, NaN, the overflow and underflow edges of exp and
    +-3 ulps around +-log(DBL_MAX)."""
    values = [0.0, -0.0, np.inf, -np.inf, np.nan, 709.0, -709.0, 710.0,
              -710.0, -745.2, -746.0, 1e308, -1e308, 5e-324]
    for edge in (losses._EXP_MAX, -losses._EXP_MAX):
        below = edge
        for _ in range(3):
            below = np.nextafter(below, -np.inf)
        values.append(below)
        for _ in range(6):
            values.append(np.nextafter(values[-1], np.inf))
    return np.array(values)


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(
        a.view(np.int64), b.view(np.int64))


class TestExpit:
    def test_exact_route_matches_scipy_bit_for_bit(self):
        from scipy.special import expit as scipy_expit

        rng = np.random.default_rng(21)
        edges = _expit_edge_values()
        assert _same_bits(losses._exact_expit(edges), scipy_expit(edges))
        for _ in range(10):  # 2M draws of each kind, in chunks
            for x in (rng.uniform(-800.0, 800.0, 200_000),
                      rng.normal(0.0, 1e-4, 200_000)):
                assert _same_bits(losses._exact_expit(x), scipy_expit(x))

    # (values counted by the math.exp route, scipy in use) after each call
    # with a budget of 10 and calls of at most 5: 4 + 4 values fit, the
    # third call would pass the budget; a call larger than 5 goes straight
    # to scipy, and so does one larger than the whole budget
    @pytest.mark.parametrize("shapes, routes", [
        ([(4,), (2, 2), (4,), (3,), ()],
         [(4, False), (8, False), (8, True), (8, True), (8, True)]),
        ([(3,), (2, 3), (2,)], [(3, False), (3, True), (3, True)]),
        ([(11,), (2,)], [(0, True), (0, True)]),
    ])
    def test_switch_to_scipy_keeps_the_bits(self, monkeypatch, shapes, routes):
        from scipy.special import expit as scipy_expit

        monkeypatch.setattr(losses, "_EXPIT_BUDGET", 10)
        monkeypatch.setattr(losses, "_EXACT_CALL_MAX", 5)
        monkeypatch.setattr(losses, "_exact_values", 0)
        monkeypatch.setattr(losses, "_scipy_expit", None)
        rng = np.random.default_rng(5)
        seen = []
        for shape in shapes:
            x = rng.normal(0.0, 40.0, shape)
            assert _same_bits(losses.expit(x), scipy_expit(x))
            seen.append((losses._exact_values, losses._scipy_expit is not None))
        assert seen == routes


# ---------------------------------------------------------------------------
# popularity


class TestPopularity:
    def test_counts_rank_first(self, rng):
        ds = build_dataset(["a", "b", "c", "d", "e", "a", "b"],
                           ["i1", "i1", "i1", "i1", "i1", "i2", "i2"])
        model = fit_closed_form(
            PopularityModel(ds, all_rows(ds), TrainConfig()))
        scores = model.full_sort_predict(np.array([1, 2, 3]))
        assert np.all(scores.argmax(axis=1) == 1)  # i1 everywhere

    def test_tie_breaks_by_item_id(self):
        from recbench.ranking import topk_find

        ds = build_dataset(["a", "b"], ["i1", "i2"])
        model = fit_closed_form(
            PopularityModel(ds, all_rows(ds), TrainConfig()))
        top = topk_find(model.full_sort_predict(np.array([1])), 2)
        np.testing.assert_array_equal(top, [[1, 2]])

    def test_counts_match_hash_map_oracle(self, rng):
        ds = implicit_ds(rng, n_rows=200)
        model = fit_closed_form(
            PopularityModel(ds, all_rows(ds), TrainConfig()))
        oracle = {}
        for item in ds.item_ids():
            oracle[int(item)] = oracle.get(int(item), 0) + 1
        for item in range(ds.n_items):
            assert model.counts[item] == oracle.get(item, 0)

    def test_user_independent(self, rng):
        ds = implicit_ds(rng)
        model = fit_closed_form(
            PopularityModel(ds, all_rows(ds), TrainConfig()))
        scores = model.full_sort_predict(np.array([1, 2]))
        np.testing.assert_array_equal(scores[0], scores[1])


# ---------------------------------------------------------------------------
# itemknn


def _dense_knn_oracle(train_pairs, n_users, n_items, k, shrink):
    X = np.zeros((n_users, n_items))
    for u, i in train_pairs:
        X[u, i] = 1.0
    sim = np.zeros((n_items, n_items))
    for i in range(n_items):
        for j in range(n_items):
            if i == j:
                continue
            num = float(X[:, i] @ X[:, j])
            den = np.linalg.norm(X[:, i]) * np.linalg.norm(X[:, j]) + shrink
            sim[i, j] = num / den if den > 0 else 0.0
    pruned = np.zeros_like(sim)
    for i in range(n_items):
        order = sorted(range(n_items), key=lambda j: (-sim[i, j], j))
        for j in order[:min(k, n_items - 1)]:
            pruned[i, j] = sim[i, j]
    return X, pruned


class TestItemKNN:
    def test_identical_user_sets_give_similarity_one(self):
        ds = build_dataset(["a", "a", "b", "b"], ["x", "y", "x", "y"])
        model = fit_closed_form(ItemKNNModel(ds, all_rows(ds), TrainConfig(),
                                             {"k": 5, "shrink": 0.0}))
        assert model.sim[1, 2] == 1.0

    def test_disjoint_user_sets_give_zero(self):
        ds = build_dataset(["a", "b"], ["x", "y"])
        model = fit_closed_form(ItemKNNModel(ds, all_rows(ds), TrainConfig(),
                                             {"k": 5, "shrink": 0.0}))
        assert model.sim[1, 2] == 0.0

    def test_scores_match_dense_oracle(self, rng):
        for trial in range(10):
            ds = implicit_ds(rng, n_users=12, n_items=20, n_rows=80)
            k, shrink = int(rng.integers(2, 8)), float(rng.uniform(0, 3))
            model = fit_closed_form(ItemKNNModel(ds, all_rows(ds), TrainConfig(),
                                                 {"k": k, "shrink": shrink}))
            pairs = list(zip(ds.user_ids().tolist(), ds.item_ids().tolist()))
            X, pruned = _dense_knn_oracle(pairs, ds.n_users, ds.n_items, k, shrink)
            users = np.arange(1, ds.n_users)
            got = model.full_sort_predict(users)
            expected = X[users] @ pruned.T
            np.testing.assert_allclose(got, expected, atol=1e-9)

    def test_row_order_invariance(self, rng):
        ds = implicit_ds(rng, n_rows=60)
        perm = rng.permutation(len(ds.inter))
        shuffled = build_dataset(
            [ds.vocabs["user_id"].decode(u) for u in ds.user_ids()[perm]],
            [ds.vocabs["item_id"].decode(i) for i in ds.item_ids()[perm]])
        a = fit_closed_form(ItemKNNModel(ds, all_rows(ds), TrainConfig(),
                                         {"k": 4}))
        b = fit_closed_form(ItemKNNModel(shuffled, all_rows(shuffled),
                                         TrainConfig(), {"k": 4}))
        # vocabularies differ (first occurrence), so compare via tokens
        for token_u in {"u1", "u3"}:
            ua = a.ds.vocabs["user_id"].encode(token_u)
            ub = b.ds.vocabs["user_id"].encode(token_u)
            sa = a.full_sort_predict(np.array([ua]))[0]
            sb = b.full_sort_predict(np.array([ub]))[0]
            for token_i in {"i2", "i7"}:
                ia = a.ds.vocabs["item_id"].encode(token_i)
                ib = b.ds.vocabs["item_id"].encode(token_i)
                assert sa[ia] == sb[ib]


# ---------------------------------------------------------------------------
# ease


def _ease_kkt_oracle(X, l2):
    """Constrained ridge via per-column KKT systems (independent route)."""
    m = X.shape[1]
    G = X.T @ X
    B = np.zeros((m, m))
    for j in range(m):
        kkt = np.zeros((m + 1, m + 1))
        kkt[:m, :m] = G + l2 * np.eye(m)
        kkt[:m, m] = np.eye(m)[:, j]
        kkt[m, :m] = np.eye(m)[j]
        rhs = np.concatenate([G[:, j], [0.0]])
        solution = np.linalg.solve(kkt, rhs)
        B[:, j] = solution[:m]
    return B


class TestEASE:
    def test_zero_diagonal_exact(self, rng):
        ds = implicit_ds(rng, n_items=10)
        model = fit_closed_form(EASEModel(ds, all_rows(ds), TrainConfig(),
                                          {"l2": 5.0}))
        assert np.all(np.diag(model.item_weights) == 0.0)

    def test_large_l2_shrinks_everything(self, rng):
        ds = implicit_ds(rng, n_items=8)
        small = fit_closed_form(EASEModel(ds, all_rows(ds), TrainConfig(),
                                          {"l2": 1.0}))
        huge = fit_closed_form(EASEModel(ds, all_rows(ds), TrainConfig(),
                                         {"l2": 1e8}))
        assert np.abs(huge.item_weights).max() < 1e-4
        assert np.abs(huge.item_weights).max() < np.abs(small.item_weights).max()

    def test_matches_kkt_oracle(self, rng):
        for trial in range(10):
            ds = implicit_ds(rng, n_users=25, n_items=15, n_rows=100)
            l2 = float(rng.uniform(0.5, 20.0))
            model = fit_closed_form(EASEModel(ds, all_rows(ds), TrainConfig(),
                                              {"l2": l2}))
            X = np.asarray(model.train_matrix.todense())
            expected = _ease_kkt_oracle(X, l2)
            np.fill_diagonal(expected, 0.0)
            np.testing.assert_allclose(model.item_weights, expected, atol=1e-6)

    def test_requires_positive_l2(self, rng):
        ds = implicit_ds(rng)
        with pytest.raises(ModelError):
            EASEModel(ds, all_rows(ds), TrainConfig(), {"l2": 0.0})


# ---------------------------------------------------------------------------
# bpr


def _csr_epoch_batches(model, rng):
    """BPR epoch batches drawn against a scipy CSR matrix of the train pairs.

    Each round re-tests the whole batch; the reference for the draws and
    their order.
    """
    seen = binary_interaction_matrix(model._users, model._items,
                                     model.n_users, model.n_items)
    order = rng.permutation(len(model._users))
    for lo in range(0, len(order), model.cfg.batch_size):
        sel = order[lo:lo + model.cfg.batch_size]
        users = model._users[sel]
        negs = rng.integers(1, model.n_items, size=len(users))
        while True:
            hit = np.asarray(seen[users, negs]).ravel() > 0
            if not hit.any():
                break
            redo = np.flatnonzero(hit)
            negs[redo] = rng.integers(1, model.n_items, size=len(redo))
        yield {"user_id": users, "pos_item": model._items[sel], "neg_item": negs}


class TestBPRTraining:
    def test_loss_decreases_on_planted_data(self, rng):
        from tests.conftest import planted_interactions

        users, items = planted_interactions(n_users=60, n_items=40,
                                            top_frac=0.08, seed=3)
        ds = build_dataset(users, items)
        cfg = TrainConfig(learning_rate=0.1, embedding_dim=8, l2=1e-6,
                          batch_size=128, epochs=5, seed=11)
        train_rng = np.random.default_rng(cfg.seed)
        model = BPRModel(ds, all_rows(ds), cfg, rng=train_rng)
        losses = run_epochs(model, train_rng, 5)
        assert all(b < a for a, b in zip(losses, losses[1:])), losses

    def test_heavy_l2_shrinks_embedding_norms(self, rng):
        ds = implicit_ds(rng, n_rows=60)
        cfg = TrainConfig(learning_rate=1e-5, embedding_dim=6, l2=1e3,
                          batch_size=64, epochs=5, seed=0)
        train_rng = np.random.default_rng(cfg.seed)
        model = BPRModel(ds, all_rows(ds), cfg, rng=train_rng)
        norms = []
        for _ in range(6):
            run_epochs(model, train_rng, 1)
            norms.append(np.linalg.norm(model.user_emb)
                         + np.linalg.norm(model.item_emb))
        assert all(b < a for a, b in zip(norms, norms[1:])), norms

    def test_single_pair_positive_score_increases(self):
        ds = build_dataset(["a", "b"], ["x", "y"])
        cfg = TrainConfig(learning_rate=0.1, embedding_dim=1, l2=1e-8,
                          batch_size=4, epochs=1, seed=2)
        train_rng = np.random.default_rng(cfg.seed)
        model = BPRModel(ds, all_rows(ds), cfg, rng=train_rng)
        pair = Batch({"user_id": np.array([1]), "item_id": np.array([1])})
        scores = [float(model.predict(pair)[0])]
        for _ in range(20):
            run_epochs(model, train_rng, 1)
            scores.append(float(model.predict(pair)[0]))
        assert all(b > a for a, b in zip(scores, scores[1:])), scores

    def test_gradients_match_finite_differences(self, rng):
        ds = implicit_ds(rng, n_users=16, n_items=18, n_rows=140)
        cfg = TrainConfig(learning_rate=0.05, embedding_dim=4, l2=0.01,
                          batch_size=128, seed=5)
        model = BPRModel(ds, all_rows(ds), cfg,
                         rng=np.random.default_rng(cfg.seed))
        batch = next(model.epoch_batches(np.random.default_rng(1)))
        loss, grads = model.loss_and_grads(batch)
        h = 1e-5
        checks = 0
        for name, param in (("user_embeddings", model.user_emb),
                            ("item_embeddings", model.item_emb)):
            flat_grad = grads[name].ravel()
            pool = np.flatnonzero(np.abs(flat_grad) > 1e-3)
            for pos in rng.choice(pool, size=min(50, len(pool)), replace=False):
                original = param.ravel()[pos]
                param.ravel()[pos] = original + h
                up = model.loss_and_grads(batch)[0]
                param.ravel()[pos] = original - h
                down = model.loss_and_grads(batch)[0]
                param.ravel()[pos] = original
                fd = (up - down) / (2 * h)
                assert relative_error(fd, flat_grad[pos]) < 1e-5
                checks += 1
        assert checks >= 100

    def test_empty_train_split_rejected(self, rng):
        ds = implicit_ds(rng)
        with pytest.raises(ModelError, match="empty train"):
            BPRModel(ds, np.array([], dtype=np.int64), TrainConfig())

    def test_negatives_avoid_train_items(self, rng):
        ds = implicit_ds(rng, n_users=5, n_items=8, n_rows=30)
        cfg = TrainConfig(batch_size=16, seed=0)
        model = BPRModel(ds, all_rows(ds), cfg,
                         rng=np.random.default_rng(0))
        train_pairs = set(zip(ds.user_ids().tolist(), ds.item_ids().tolist()))
        for batch in model.epoch_batches(np.random.default_rng(3)):
            users, negs = batch["user_id"], batch["neg_item"]
            assert not train_pairs & set(zip(users.tolist(), negs.tolist()))
            assert np.all((negs >= 1) & (negs < ds.n_items))

    @pytest.mark.parametrize("dense", [False, True])
    def test_epoch_batches_match_csr_sampler(self, dense):
        data_rng = np.random.default_rng(7)
        if dense:  # each user misses 1-3 of 40 items: most draws are retried
            users, items = [], []
            for u in range(8):
                kept = data_rng.permutation(40)[:int(data_rng.integers(37, 40))]
                users += [f"u{u}"] * len(kept)
                items += [f"i{i}" for i in kept]
            ds = build_dataset(users, items)
            assert ds.n_items == 41
        else:
            ds = implicit_ds(data_rng, n_users=50, n_items=40, n_rows=600)
        for seed in range(4):
            for batch_size in (1, 7, 64, 1024):
                cfg = TrainConfig(batch_size=batch_size, seed=seed)
                model = BPRModel(ds, all_rows(ds), cfg,
                                 rng=np.random.default_rng(seed))
                got_rng = np.random.default_rng(seed + 100)
                want_rng = np.random.default_rng(seed + 100)
                for _ in range(2):
                    got = list(model.epoch_batches(got_rng))
                    want = list(_csr_epoch_batches(model, want_rng))
                    assert len(got) == len(want)
                    for g, w in zip(got, want):
                        for key in ("user_id", "pos_item", "neg_item"):
                            np.testing.assert_array_equal(g[key], w[key])
                # the same draws in the same order, none extra
                assert got_rng.bit_generator.state == want_rng.bit_generator.state

    def test_user_holding_every_item_rejected(self):
        # raw user "1" has the internal ID 2: the error names the raw token
        ds = build_dataset(["5", "1", "1", "1", "1", "9"],
                           ["i0", "i0", "i1", "i2", "i1", "i2"])
        assert ds.vocabs["user_id"].encode("1") == 2
        with pytest.raises(ModelError, match="^user '1' interacted with every item"):
            BPRModel(ds, all_rows(ds), TrainConfig())

    def test_user_missing_one_item_trains_on_it(self):
        # u0's duplicate rows do not count as distinct items
        ds = build_dataset(["u0"] * 5 + ["u1", "u1"],
                           ["i0", "i1", "i2", "i0", "i1", "i3", "i0"])
        u0 = ds.vocabs["user_id"].encode("u0")
        i3 = ds.vocabs["item_id"].encode("i3")
        cfg = TrainConfig(batch_size=2, seed=0)
        train_rng = np.random.default_rng(cfg.seed)
        model = BPRModel(ds, all_rows(ds), cfg, rng=train_rng)
        for _ in range(5):
            for batch in model.epoch_batches(train_rng):
                negs = batch["neg_item"][batch["user_id"] == u0]
                assert np.all(negs == i3)
                assert np.isfinite(model.calculate_loss(batch))

    def test_margin_loss_variant_trains(self, rng):
        ds = implicit_ds(rng, n_rows=50)
        cfg = TrainConfig(learning_rate=0.05, embedding_dim=4,
                          batch_size=32, loss="margin", seed=1)
        train_rng = np.random.default_rng(cfg.seed)
        model = BPRModel(ds, all_rows(ds), cfg, rng=train_rng)
        losses = run_epochs(model, train_rng, 3)
        assert all(np.isfinite(losses))


# ---------------------------------------------------------------------------
# item-item scoring shared by itemknn and ease

_ITEM_ITEM = [("itemknn", {"k": 5, "shrink": 1.0}), ("ease", {"l2": 3.0})]


class TestItemItemScoring:
    @pytest.mark.parametrize("kind,params", _ITEM_ITEM)
    def test_predict_equals_full_sort_at_uni_candidates(self, kind, params, rng):
        for seed in range(3):
            ds = implicit_ds(rng, n_users=25, n_items=60, n_rows=300)
            plan = parse_eval_setting("RO_LS,uni10", seed=seed)
            split = make_split(ds, plan)
            cand = build_candidates(ds, split, "uni", seed=seed, n_negatives=10)
            rows, items = row_cells(cand.candidates)
            users = cand.users[rows]
            model = fit_closed_form(build_model(kind, ds, split.train,
                                                TrainConfig(), params))
            got = model.predict(Batch({"user_id": users, "item_id": items}))
            full = model.full_sort_predict(np.arange(ds.n_users))
            assert got.tobytes() == full[users, items].tobytes(), kind

    @pytest.mark.parametrize("kind,params", _ITEM_ITEM)
    def test_predict_memory_grows_with_users_not_pairs(self, kind, params):
        rng = np.random.default_rng(3)
        ds = implicit_ds(rng, n_users=40, n_items=800, n_rows=6000)
        model = fit_closed_form(build_model(kind, ds, all_rows(ds),
                                            TrainConfig(), params))
        n_pairs = 20_000
        batch = Batch({"user_id": rng.integers(1, ds.n_users, size=n_pairs),
                       "item_id": rng.integers(1, ds.n_items, size=n_pairs)})
        tracemalloc.start()
        try:
            model.predict(batch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one float64 score row per distinct user plus O(1) words per pair;
        # a row per pair would be n_pairs * n_items * 8 bytes = 128 MB
        assert peak < 4 * ds.n_users * ds.n_items * 8 + 100 * n_pairs, peak

    @pytest.mark.parametrize("kind,params", _ITEM_ITEM)
    def test_fit_holds_two_item_item_buffers(self, kind, params):
        # about two items per user: the sparse co-occurrence holds about
        # 10,000 cells, next to n_items² (about 2 million) dense ones; at
        # this size top-k's tie-sweep blocks are small next to n_items² too
        rng = np.random.default_rng(5)
        ds = implicit_ds(rng, n_users=1500, n_items=1800, n_rows=3000)
        model = build_model(kind, ds, all_rows(ds), TrainConfig(), params)
        batch = model.train_batch()
        import scipy.sparse  # noqa: F401  the fit's lazy import, not traced
        tracemalloc.start()
        try:
            model.calculate_loss(batch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * ds.n_items ** 2 * 8, (peak, ds.n_items)


# ---------------------------------------------------------------------------
# fm


def _fm_naive_pairwise(v, idx_row, val_row):
    total = 0.0
    A = len(idx_row)
    for a in range(A):
        for b in range(a + 1, A):
            total += float(v[idx_row[a]] @ v[idx_row[b]]) * val_row[a] * val_row[b]
    return total


def _fm_dataset(rng):
    from recbench.dataset import Dataset, remap_ids, set_label_by_threshold
    from recbench.tables import DataTable, FieldSpec, FieldType, TableKind

    n = 120
    users = [f"u{v}" for v in rng.integers(0, 20, size=n)]
    items = [f"i{v}" for v in rng.integers(0, 20, size=n)]
    ratings = rng.integers(1, 6, size=n).astype(float)
    inter = DataTable(TableKind.INTER,
                      [FieldSpec("user_id", FieldType.TOKEN),
                       FieldSpec("item_id", FieldType.TOKEN),
                       FieldSpec("rating", FieldType.FLOAT)],
                      {"user_id": users, "item_id": items, "rating": ratings})
    user_feat = DataTable(TableKind.USER,
                          [FieldSpec("user_id", FieldType.TOKEN),
                           FieldSpec("age_band", FieldType.TOKEN),
                           FieldSpec("activity", FieldType.FLOAT)],
                          {"user_id": [f"u{v}" for v in range(20)],
                           "age_band": [f"b{v % 3}" for v in range(20)],
                           "activity": rng.uniform(0, 1, size=20)})
    item_feat = DataTable(TableKind.ITEM,
                          [FieldSpec("item_id", FieldType.TOKEN),
                           FieldSpec("genre", FieldType.TOKEN)],
                          {"item_id": [f"i{v}" for v in range(20)],
                           "genre": [f"g{v % 4}" for v in range(20)]})
    ds = Dataset.build(inter, user_feat=user_feat, item_feat=item_feat)
    ds = remap_ids(ds)
    return set_label_by_threshold(ds, "rating", 4.0)


def _fm_partial_feature_dataset(rng):
    """User and item tables with a token and a float field each; some IDs
    have no feature row and some floats are NaN."""
    from recbench.dataset import Dataset, remap_ids
    from recbench.tables import DataTable, FieldSpec, FieldType, TableKind

    n = 150
    inter = DataTable(TableKind.INTER,
                      [FieldSpec("user_id", FieldType.TOKEN),
                       FieldSpec("item_id", FieldType.TOKEN),
                       FieldSpec("rating", FieldType.FLOAT)],
                      {"user_id": [f"u{v}" for v in rng.integers(0, 20, size=n)],
                       "item_id": [f"i{v}" for v in rng.integers(0, 25, size=n)],
                       "rating": rng.integers(1, 6, size=n).astype(float)})

    def side_table(kind, key, ids, token, number):
        values = rng.uniform(-2, 2, size=len(ids))
        values[::4] = np.nan
        return DataTable(kind,
                         [FieldSpec(key, FieldType.TOKEN),
                          FieldSpec(token, FieldType.TOKEN),
                          FieldSpec(number, FieldType.FLOAT)],
                         {key: [f"{key[0]}{v}" for v in ids],
                          token: [f"t{v % 3}" for v in ids], number: values})

    user_feat = side_table(TableKind.USER, "user_id",
                           [v for v in range(20) if v % 4], "band", "activity")
    item_feat = side_table(TableKind.ITEM, "item_id",
                           [v for v in range(25) if v % 3], "genre", "price")
    ds = remap_ids(Dataset.build(inter, user_feat=user_feat, item_feat=item_feat))
    return set_label_by_threshold(ds, "rating", 4.0)


def _active_slots_reference(model, users, items):
    """A per-slot loop over both sides at once; the bitwise reference."""
    users = np.asarray(users, dtype=np.int64)
    items = np.asarray(items, dtype=np.int64)
    idx = np.empty((len(users), len(model.slots)), dtype=np.int64)
    val = np.ones((len(users), len(model.slots)), dtype=np.float64)
    for col, slot in enumerate(model.slots):
        if slot.source == "user_id":
            idx[:, col] = slot.offset + users
            continue
        if slot.source == "item_id":
            idx[:, col] = slot.offset + items
            continue
        if slot.source == "user_feat":
            entities, table, key = users, model.ds.user_feat, model.ds.user_field
        else:
            entities, table, key = items, model.ds.item_feat, model.ds.item_field
        row_of = {int(e): r for r, e in enumerate(table.columns[key])}
        rows = np.array([row_of.get(int(e), -1) for e in entities], dtype=np.int64)
        column = table.columns[slot.name]
        present = rows >= 0
        safe = np.where(present, rows, 0)
        if slot.kind == "token":
            idx[:, col] = slot.offset + np.where(present, column[safe], 0)
        else:
            idx[:, col] = slot.offset
            values = np.where(present, column[safe], 0.0)
            val[:, col] = np.nan_to_num(values, nan=0.0)
    return idx, val


class TestFM:
    def test_active_slots_match_per_slot_reference(self, rng):
        ds = _fm_partial_feature_dataset(rng)
        model = FMModel(ds, all_rows(ds), TrainConfig(embedding_dim=3),
                        rng=np.random.default_rng(0))
        assert {(s.source, s.kind) for s in model.slots} >= {
            ("user_feat", "token"), ("user_feat", "float"),
            ("item_feat", "token"), ("item_feat", "float")}
        users = np.concatenate([[0], np.arange(ds.n_users), ds.user_ids()])
        items = np.concatenate([[0], rng.integers(0, ds.n_items, ds.n_users),
                                ds.item_ids()])
        got = model.active_slots(users, items)
        expected = _active_slots_reference(model, users, items)
        for a, b in zip(got, expected):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert (got[1] != 1.0).any()  # float slots carry their values

    def test_missing_label_column(self, rng):
        ds = implicit_ds(rng)
        with pytest.raises(ModelError, match="label"):
            FMModel(ds, all_rows(ds), TrainConfig())

    def test_fields_must_name_scalar_feature_fields(self, rng):
        ds = _fm_dataset(rng)
        model = FMModel(ds, all_rows(ds), TrainConfig(),
                        {"fields": ["user_id", "genre"]})
        assert [s.name for s in model.slots] == ["user_id", "item_id", "genre"]
        with pytest.raises(ModelError, match=r"'age' not found .*: user_id, "
                           r"item_id, age_band, activity, genre$"):
            FMModel(ds, all_rows(ds), TrainConfig(), {"fields": ["genre", "age"]})

    def test_zero_factors_reduce_to_logistic_regression(self, rng):
        ds = _fm_dataset(rng)
        cfg = TrainConfig(embedding_dim=4, seed=0)
        model = FMModel(ds, all_rows(ds), cfg, rng=np.random.default_rng(0))
        model.v[:] = 0.0
        model.w = np.asarray(np.random.default_rng(1).standard_normal(model.n_slots))
        model.w0 = 0.3
        users = ds.user_ids()[:20]
        items = ds.item_ids()[:20]
        idx, val = model.active_slots(users, items)
        logits = model.score_logits(Batch({"user_id": users, "item_id": items}))
        linear = model.w0 + (model.w[idx] * val).sum(axis=1)
        np.testing.assert_array_equal(logits, linear)  # pairwise term exactly 0

    def test_pairwise_term_matches_naive_double_sum(self, rng):
        ds = _fm_dataset(rng)
        cfg = TrainConfig(embedding_dim=5, seed=3)
        model = FMModel(ds, all_rows(ds), cfg, rng=np.random.default_rng(3))
        model.v = np.asarray(rng.standard_normal(model.v.shape))
        users = ds.user_ids()[:30]
        items = ds.item_ids()[:30]
        idx, val = model.active_slots(users, items)
        logits = model.score_logits_from_slots(idx, val)
        linear = model.w0 + (model.w[idx] * val).sum(axis=1)
        pairwise = logits - linear
        for r in range(len(users)):
            naive = _fm_naive_pairwise(model.v, idx[r], val[r])
            assert abs(pairwise[r] - naive) < 1e-9

    def test_gradients_match_finite_differences(self, rng):
        ds = _fm_dataset(rng)
        cfg = TrainConfig(embedding_dim=3, l2=0.01, batch_size=64, seed=4)
        model = FMModel(ds, all_rows(ds), cfg, rng=np.random.default_rng(4))
        batch = next(model.epoch_batches(np.random.default_rng(2)))
        loss, grads = model.loss_and_grads(batch)
        h = 1e-5
        model.w0 += h
        up = model.loss_and_grads(batch)[0]
        model.w0 -= 2 * h
        down = model.loss_and_grads(batch)[0]
        model.w0 += h
        assert relative_error((up - down) / (2 * h), grads["bias"][0]) < 1e-5
        # pool of well-conditioned coordinates across both parameter arrays
        params = {"linear_weights": model.w, "factor_matrix": model.v}
        pool = [(name, pos)
                for name in params
                for pos in np.flatnonzero(np.abs(grads[name].ravel()) > 1e-3)]
        assert len(pool) >= 100
        picks = rng.choice(len(pool), size=100, replace=False)
        for name, pos in (pool[p] for p in picks):
            param = params[name]
            flat_grad = grads[name].ravel()
            original = param.ravel()[pos]
            param.ravel()[pos] = original + h
            up = model.loss_and_grads(batch)[0]
            param.ravel()[pos] = original - h
            down = model.loss_and_grads(batch)[0]
            param.ravel()[pos] = original
            fd = (up - down) / (2 * h)
            assert relative_error(fd, flat_grad[pos]) < 1e-5

    def test_training_reduces_loss(self, rng):
        ds = _fm_dataset(rng)
        cfg = TrainConfig(learning_rate=0.05, embedding_dim=4, l2=1e-6,
                          batch_size=32, seed=6)
        train_rng = np.random.default_rng(cfg.seed)
        model = FMModel(ds, all_rows(ds), cfg, rng=train_rng)
        losses = run_epochs(model, train_rng, 8)
        assert losses[-1] < losses[0]

    def test_predict_is_sigmoid_of_logits(self, rng):
        ds = _fm_dataset(rng)
        model = FMModel(ds, all_rows(ds), TrainConfig(embedding_dim=2, seed=0),
                        rng=np.random.default_rng(0))
        batch = Batch({"user_id": ds.user_ids()[:5], "item_id": ds.item_ids()[:5]})
        preds = model.predict(batch)
        assert np.all((preds > 0) & (preds < 1))


    def test_loaded_factor_matrix_is_trained_in_place(self, rng):
        # the factor scatter writes through a flat view, so a loaded
        # Fortran-ordered array must become a C-ordered one
        ds = _fm_dataset(rng)
        cfg = TrainConfig(embedding_dim=3, batch_size=64, seed=4)
        trained = {}
        for order in ("C", "F"):
            model = FMModel(ds, all_rows(ds), cfg, rng=np.random.default_rng(4))
            arrays = {k: np.array(v, order=order)
                      for k, v in model.state_arrays().items()}
            model.load_state_arrays(arrays)
            run_epochs(model, np.random.default_rng(2), 1)
            trained[order] = model.v
        assert not np.array_equal(trained["C"], arrays["factor_matrix"])
        np.testing.assert_array_equal(trained["F"], trained["C"])


class TestAddRows:
    @pytest.mark.parametrize("index_shape", [(60,), (40, 3)])
    def test_equals_add_at_bit_for_bit(self, index_shape):
        # (60,) is BPR's row list; (40, 3) is FM's (batch, field) slot index
        r = np.random.default_rng(5)
        E = r.standard_normal((9, 4))
        rows = r.integers(0, 9, size=index_shape)  # every row repeats
        V = r.standard_normal(index_shape + (4,))
        expected = E.copy()
        np.add.at(expected, rows, V)
        got = E.copy()
        _add_rows(got, rows.ravel(), V.reshape(-1, 4))
        assert got.tobytes() == expected.tobytes()

    def test_one_dimensional_equals_add_at_bit_for_bit(self):
        # FM's linear weights: one value per slot, a (batch, field) index
        r = np.random.default_rng(6)
        w = r.standard_normal(9)
        idx = r.integers(0, 9, size=(40, 3))  # every row repeats
        g = r.standard_normal((40, 3))
        expected = w.copy()
        np.add.at(expected, idx, g)
        got = w.copy()
        _add_rows(got, idx.ravel(), g.ravel())
        assert got.tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# shared interface properties


def _build_all_models(rng, with_labels=True):
    ds = implicit_ds(rng, n_users=10, n_items=12, n_rows=80, ratings=True)
    cfg = TrainConfig(learning_rate=0.05, embedding_dim=4, epochs=2,
                      batch_size=32, seed=9)
    models = {}
    for kind in ("popularity", "itemknn", "ease"):
        model = build_model(kind, ds, all_rows(ds), cfg,
                            params={"l2": 2.0} if kind == "ease" else {})
        fit_closed_form(model)
        models[kind] = model
    for kind in ("bpr", "fm"):
        train_rng = np.random.default_rng(cfg.seed)
        model = build_model(kind, ds, all_rows(ds), cfg, rng=train_rng)
        run_epochs(model, train_rng, 2)
        models[kind] = model
    return ds, models


class TestInterfaceCoherence:
    def test_predict_matches_full_sort(self, rng):
        ds, models = _build_all_models(rng)
        check = np.random.default_rng(0)
        users = check.integers(1, ds.n_users, size=40)
        items = check.integers(1, ds.n_items, size=40)
        batch = Batch({"user_id": users, "item_id": items})
        for kind, model in models.items():
            pair_scores = model.predict(batch)
            matrix = model.full_sort_predict(np.arange(ds.n_users))
            for t in range(40):
                assert abs(pair_scores[t] - matrix[users[t], items[t]]) < 1e-6, kind

    def test_calculate_loss_finite(self, rng):
        ds, models = _build_all_models(rng)
        for kind, model in models.items():
            if model.iterative:
                batch = next(model.epoch_batches(np.random.default_rng(0)))
                assert np.isfinite(model.calculate_loss(batch)), kind
            else:
                assert model.calculate_loss(model.train_batch()) == 0.0


class TestRowOrderInvariance:
    @pytest.mark.parametrize("kind,params", [
        ("popularity", {}),
        ("itemknn", {"k": 4}),
        ("ease", {"l2": 3.0}),
    ])
    def test_scores_ignore_interaction_row_order(self, kind, params, rng):
        ds = implicit_ds(rng, n_rows=60)
        perm = rng.permutation(len(ds.inter))
        # same rows, shuffled file order; identical vocab via decode/rebuild
        # on the original vocabulary order
        from recbench.dataset import Dataset

        shuffled_inter = ds.inter.select_rows(perm)
        shuffled = Dataset(inter=shuffled_inter, vocabs=ds.vocabs, encoded=True)
        a = fit_closed_form(build_model(kind, ds, all_rows(ds),
                                        TrainConfig(), params))
        b = fit_closed_form(build_model(kind, shuffled, all_rows(shuffled),
                                        TrainConfig(), params))
        users = np.arange(1, ds.n_users)
        np.testing.assert_array_equal(a.full_sort_predict(users),
                                      b.full_sort_predict(users))


class TestDeterminism:
    @pytest.mark.parametrize("kind", ["popularity", "itemknn", "bpr", "ease", "fm"])
    def test_bitwise_identical_across_runs(self, kind, rng):
        states = []
        for _ in range(2):
            build_rng = np.random.default_rng(77)
            ds = implicit_ds(np.random.default_rng(4), ratings=True)
            cfg = TrainConfig(embedding_dim=4, epochs=2, batch_size=32, seed=77)
            model = build_model(kind, ds, all_rows(ds), cfg, rng=build_rng)
            if model.iterative:
                run_epochs(model, build_rng, 2)
            else:
                fit_closed_form(model)
            states.append(model.state_arrays())
        for name in states[0]:
            np.testing.assert_array_equal(states[0][name], states[1][name])


class TestStateRoundTrip:
    def test_save_load_identical_scores(self, rng, tmp_path):
        ds, models = _build_all_models(rng)
        users = np.arange(1, ds.n_users)
        for kind, model in models.items():
            path = tmp_path / f"{kind}.ckpt"
            save_state(path, {"model": kind, "epoch": 1}, model.state_arrays())
            manifest, arrays = load_state(path)
            assert manifest["model"] == kind
            cfg = TrainConfig(embedding_dim=4, seed=9)
            clone = build_model(kind, ds, all_rows(ds), cfg,
                                params={"l2": 2.0} if kind == "ease" else {},
                                rng=np.random.default_rng(1))
            clone.load_state_arrays(arrays)
            np.testing.assert_array_equal(model.full_sort_predict(users),
                                          clone.full_sort_predict(users))

    def test_corrupt_file_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"RBKP" + b"\x00" * 4)
        with pytest.raises(CheckpointError):
            load_state(path)
        path.write_bytes(b"JUNKJUNKJUNKJUNKJUNK")
        with pytest.raises(CheckpointError, match="not a checkpoint"):
            load_state(path)

    def test_truncated_arrays_rejected(self, tmp_path, rng):
        path = tmp_path / "trunc.ckpt"
        save_state(path, {"model": "bpr"},
                   {"w": rng.standard_normal((4, 4))})
        raw = path.read_bytes()
        path.write_bytes(raw[:-16])
        with pytest.raises(CheckpointError, match="truncated"):
            load_state(path)

    def test_version_mismatch(self, tmp_path, rng):
        import struct

        path = tmp_path / "ver.ckpt"
        save_state(path, {"model": "bpr"}, {"w": rng.standard_normal(3)})
        raw = bytearray(path.read_bytes())
        raw[4:8] = struct.pack("<I", 99)
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="version"):
            load_state(path)

    def test_resume_one_epoch_equals_uninterrupted(self, rng):
        ds = implicit_ds(np.random.default_rng(8), n_rows=90)
        cfg = TrainConfig(learning_rate=0.05, embedding_dim=4,
                          batch_size=32, seed=21)

        def fresh():
            r = np.random.default_rng(cfg.seed)
            return BPRModel(ds, all_rows(ds), cfg, rng=r), r

        straight, r1 = fresh()
        run_epochs(straight, r1, 4)

        partial, r2 = fresh()
        run_epochs(partial, r2, 3)
        arrays = {k: v.copy() for k, v in partial.state_arrays().items()}
        rng_state = r2.bit_generator.state

        resumed, r3 = fresh()
        resumed.load_state_arrays(arrays)
        r3.bit_generator.state = rng_state
        run_epochs(resumed, r3, 1)

        for name in arrays:
            np.testing.assert_array_equal(resumed.state_arrays()[name],
                                          straight.state_arrays()[name])


class TestClosedFormEpoch:
    def test_one_epoch_is_the_train_batch(self, rng):
        _, models = _build_all_models(rng)
        for kind in ("popularity", "itemknn", "ease"):
            model = models[kind]
            draw = np.random.default_rng(0)
            state = draw.bit_generator.state
            batches = list(model.epoch_batches(draw))
            assert len(batches) == 1, kind
            expected = model.train_batch()
            assert set(batches[0]) == set(expected), kind
            for name in expected:
                np.testing.assert_array_equal(batches[0][name], expected[name])
            assert draw.bit_generator.state == state, kind  # draws nothing
