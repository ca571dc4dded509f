import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multitag import synthetic
from multitag.core import (DrbmParams, LabeledExample, ShapeError, cd_chain,
                           mean_field, sigm)
from multitag.estimators import (DIVERGENCE_LIMIT, DivergenceError,
                                 TrainConfig, cd_gradient, sgd)
from multitag.smoother import (Events, SmootherParams, TagEvent,
                               _block_columns, _clip_step, _event_inputs,
                               build_aux, other_users_avg, smooth_tags,
                               smoothed_dataset, smoother_cd_gradient,
                               train_smoother)


def small_smoother(rng, n=2, C=3, aux_sizes=(2, 2, 2), scale=0.3):
    A = sum(aux_sizes)
    return SmootherParams(rng.normal(scale=scale, size=(n, C)),
                          rng.normal(scale=scale, size=(n, C)),
                          rng.normal(scale=scale, size=(C, A)),
                          rng.normal(scale=scale, size=n),
                          rng.normal(scale=scale, size=C), aux_sizes)


class TestSmootherParams:
    def test_checks_shapes_and_aux_sizes(self, rng):
        p = small_smoother(rng)
        assert list(p.dims.items()) == [("n", 2), ("C", 3), ("A", 6)]
        with pytest.raises(ShapeError, match="W must be n x C"):
            SmootherParams(p.U, p.W.T, p.V, p.c, p.d, p.aux_sizes)
        with pytest.raises(ShapeError, match="aux_sizes must be three block "
                                             "sizes summing to A=6"):
            SmootherParams(p.U, p.W, p.V, p.c, p.d, (2, 2, 3))


class TestBuildAux:
    def test_one_hot_blocks(self):
        a = build_aux(1, 0, 2, (2, 3, 4))
        expected = np.zeros(9)
        expected[[1, 2, 7]] = 1.0
        np.testing.assert_array_equal(a, expected)

    def test_none_leaves_block_zero(self):
        a = build_aux(None, 1, 0, (2, 2, 2))
        np.testing.assert_array_equal(a, [0, 0, 0, 1, 1, 0])

    def test_out_of_range(self):
        with pytest.raises(IndexError, match="^id 2 out of range for block "
                                             "of size 2$"):
            build_aux(2, 0, 0, (2, 2, 2))

    @pytest.mark.parametrize("ids", [(2, 0, 0), (0, -1, 0), (0, 0, 2)])
    def test_columns_out_of_range_like_build_aux(self, ids):
        bad = [i for i in ids if i != 0][0]
        text = f"^id {bad} out of range for block of size 2$"
        with pytest.raises(IndexError, match=text):
            build_aux(*ids, (2, 2, 2))
        with pytest.raises(IndexError, match=text):
            _block_columns(np.array([ids]), (2, 2, 2))
        if ids[0] == 0:  # the same id, the user block left out
            with pytest.raises(IndexError, match=text):
                build_aux(None, *ids[1:], (2, 2, 2))

    def test_columns_are_the_one_hot_entries(self):
        assert _block_columns(np.array([[1, 0, 2]]),
                              (2, 3, 4)).tolist() == [[1, 2, 7]]
        assert _block_columns(np.array([[1, 0]]), (2, 2, 2),
                              first=1).tolist() == [[3, 4]]


class TestOtherUsersAvg:
    def test_excludes_the_user(self):
        events = [TagEvent(0, 0, 0, np.array([1.0, 0.0])),
                  TagEvent(1, 0, 0, np.array([0.0, 1.0])),
                  TagEvent(2, 0, 0, np.array([1.0, 1.0]))]
        np.testing.assert_allclose(other_users_avg(events, 0), [0.5, 1.0])

    def test_lone_tagger_gets_zeros(self):
        events = [TagEvent(0, 0, 0, np.array([1.0, 1.0]))]
        np.testing.assert_array_equal(other_users_avg(events, 0), [0.0, 0.0])


@st.composite
def event_lists(draw):
    """(events, aux_sizes, C): random 0/1 events plus a second event of
    the first event's user on its clip and a lone tagger on a clip of its
    own, in a random order."""
    C = draw(st.integers(1, 4))
    sizes = (draw(st.integers(1, 4)), draw(st.integers(1, 3)),
             draw(st.integers(1, 4)) + 1)
    bits = st.lists(st.integers(0, 1), min_size=C, max_size=C)
    rows = draw(st.lists(st.tuples(
        st.integers(0, sizes[0] - 1), st.integers(0, sizes[1] - 1),
        st.integers(0, sizes[2] - 2), bits), min_size=1, max_size=12))
    u, t, c, _ = rows[0]
    rows += [(u, t, c, draw(bits)), (0, 0, sizes[2] - 1, draw(bits))]
    rows = draw(st.permutations(rows))
    return ([TagEvent(u, t, c, np.array(y, dtype=float))
             for u, t, c, y in rows], sizes, C)


class TestEventInputs:
    @settings(max_examples=100)
    @given(event_lists())
    def test_match_the_per_event_functions(self, case):
        events, sizes, C = case
        p = SmootherParams.random_init(2, C, sizes, np.random.default_rng(0))
        Y, avgs, cols = _event_inputs(Events.from_tag_events(events), p)
        assert avgs.shape == (len(events), C)
        assert Y.tobytes() == np.array([e.y for e in events]).tobytes()
        for e, avg, col in zip(events, avgs, cols):
            same_clip = [f for f in events if f.clip == e.clip]
            assert avg.tobytes() == other_users_avg(same_clip,
                                                    e.user).tobytes()
            assert col.tolist() == [e.user, sizes[0] + e.track,
                                    sizes[0] + sizes[1] + e.clip]

    def test_label_block_must_match_the_model(self):
        p = SmootherParams.random_init(2, 3, (2, 2, 2),
                                       np.random.default_rng(0))
        events = Events(np.zeros((2, 3), dtype=np.intp), np.zeros((2, 2)))
        with pytest.raises(ShapeError, match=r"\(E, 3\) ids and \(E, 3\) "
                                             r"labels, got \(2, 3\) and "
                                             r"\(2, 2\)"):
            _event_inputs(events, p)


class TestSmootherCdGradient:
    def test_reduces_to_plain_cd_when_conditioning_is_off(self, rng):
        # zero W and V make the hidden and visible inputs identical to
        # the unconditioned chain, and the rng streams are drawn in the
        # same block layout, so the shared statistics agree bit for bit
        n, C, D = 3, 4, 5
        base = DrbmParams(rng.normal(scale=0.4, size=(n, C)),
                          np.zeros((n, D)),
                          rng.normal(scale=0.4, size=n),
                          rng.normal(scale=0.4, size=C))
        sp = SmootherParams(base.U.copy(), np.zeros((n, C)),
                            np.zeros((C, 3)), base.c.copy(), base.d.copy(),
                            (1, 1, 1))
        y = (rng.random(C) < 0.5).astype(float)
        ev = TagEvent(0, 0, 0, y)
        ex = LabeledExample(np.zeros(D), y)
        for K in (1, 3):
            gs = smoother_cd_gradient(ev.y, np.zeros(C), sp.V[:, [0, 1, 2]],
                                      sp, K, np.random.default_rng(17))
            gd = cd_gradient(ex, base, K, np.random.default_rng(17))
            np.testing.assert_array_equal(gs.dU, gd.dU)
            np.testing.assert_array_equal(gs.dc, gd.dc)
            np.testing.assert_array_equal(gs.dd, gd.dd)

    def test_conditioning_gradients_are_outer_products(self, rng):
        # dW is dc crossed with the other users' average, and a step's
        # update of V is dd crossed with the one-hot aux vector; V starts
        # at zero, so no step is clipped
        p = small_smoother(rng)
        u = rng.random(p.C)
        cols = _block_columns(np.array([[1, 0, 1]]), p.aux_sizes)[0]
        g = smoother_cd_gradient(np.array([1.0, 0.0, 1.0]), u, p.V[:, cols],
                                 p, 1, np.random.default_rng(3))
        np.testing.assert_allclose(g.dW, np.outer(g.dc, u), atol=1e-12)

        p.V[:] = 0.0
        a = build_aux(1, 0, 1, p.aux_sizes)
        events = Events(np.array([[1, 0, 1]]), np.array([[1.0, 0.0, 1.0]]))
        cfg = TrainConfig(estimator="cd", k=1, lr=0.1, epochs=1, seed=3)
        got = train_smoother(events, p, cfg)
        np.testing.assert_allclose(got.V, np.outer(got.d - p.d, a),
                                   atol=1e-12)

    def test_decoupled_visible_bias_expectation(self):
        # with U = 0 the resampled tags are unbiased draws from
        # sigm(d + Va), giving E[dd] = y - sigm(d + Va).  The runs go
        # through one batched chain with smoother_cd_gradient's inputs; it
        # draws the stream of the serial calls, and dd = y - yK holds
        # integers, so its sum is exact in any order
        rng = np.random.default_rng(21)
        C = 3
        p = SmootherParams(np.zeros((2, C)), np.zeros((2, C)),
                           rng.normal(scale=0.5, size=(C, 3)), np.zeros(2),
                           rng.normal(scale=0.5, size=C), (1, 1, 1))
        a = build_aux(0, 0, 0, p.aux_sizes)
        cols = _block_columns(np.array([[0, 0, 0]]), p.aux_sizes)[0]
        y = np.array([1.0, 0.0, 1.0])
        runs = 30_000
        hid = np.broadcast_to(p.c + p.W @ np.zeros(C), (runs, p.n))
        _, _, yK = cd_chain(hid, p.d + p.V[:, cols].sum(axis=1), p.U,
                            np.broadcast_to(y, (runs, C)), 1, rng)
        acc = np.sum(y - yK, axis=0)
        probs = sigm(p.d + p.V @ a)
        se = np.sqrt(probs * (1 - probs) / runs)
        assert np.all(np.abs(acc / runs - (y - probs)) < 3 * se)

    def test_l1_shrinks_only_conditioning_weights(self, rng):
        # one step on one event at l1 = 0.1 and at l1 = 0 from the same
        # seed; every weight lies at least 0.2 from zero, so no step of
        # size lr * (1 + l1) is clipped
        p = small_smoother(rng)
        p.W += 0.2 * np.sign(p.W)
        p.V += 0.2 * np.sign(p.V)
        cols = _block_columns(np.array([[0, 1, 0]]), p.aux_sizes)[0]
        events = Events(np.array([[0, 1, 0]]), np.array([[0.0, 1.0, 0.0]]))
        lr = 0.1
        plain, shrunk = (train_smoother(events, p, TrainConfig(
            estimator="cd", k=1, lr=lr, epochs=1, seed=8, l1=l1))
            for l1 in (0.0, 0.1))
        for name in ("U", "c", "d"):
            np.testing.assert_array_equal(getattr(shrunk, name),
                                          getattr(plain, name))
        np.testing.assert_allclose(shrunk.W, plain.W - lr * 0.1 * np.sign(p.W),
                                   atol=1e-12)
        np.testing.assert_allclose(shrunk.V[:, cols],
                                   plain.V[:, cols]
                                   - lr * 0.1 * np.sign(p.V[:, cols]),
                                   atol=1e-12)


# zeros of both signs, NaN, infinities and subnormals, among any floats
CLIP_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324,
                     -5e-324, 2.2e-308, -1e-310, 1.0, -1.0]),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))


def where_clip_step(old, new):
    """The clipped step as first written, frozen: a flip is a nonzero old
    weight and a new one of the opposite sign."""
    flipped = (old != 0) & (np.sign(new) == -np.sign(old))
    return np.where(flipped, 0.0, new)


class TestClipStep:
    def test_sign_flip_lands_at_zero(self):
        old = np.array([1.0, -1.0, 0.5, 0.0])
        new = np.array([-0.2, 0.3, 0.4, -0.1])
        np.testing.assert_array_equal(_clip_step(np.sign(old), new),
                                      [0.0, 0.0, 0.4, -0.1])

    def test_same_sign_untouched(self):
        old = np.array([1.0, -2.0])
        new = np.array([0.5, -0.1])
        np.testing.assert_array_equal(_clip_step(np.sign(old), new), new)

    @settings(max_examples=300)
    @given(st.lists(st.tuples(CLIP_VALUES, CLIP_VALUES), min_size=1,
                    max_size=12))
    def test_matches_the_where_rule_bit_for_bit(self, pairs):
        old, new = np.array(pairs, dtype=float).T
        with np.errstate(invalid="ignore"):  # 0 * inf in the product
            want = where_clip_step(old, new).tobytes()
            assert _clip_step(np.sign(old), new).tobytes() == want


def toy_tag_events():
    return [TagEvent(0, 0, 0, np.array([1.0, 0.0])),
            TagEvent(1, 0, 0, np.array([1.0, 1.0])),
            TagEvent(0, 1, 1, np.array([0.0, 1.0])),
            TagEvent(1, 1, 1, np.array([0.0, 0.0]))]


def toy_events():
    return Events.from_tag_events(toy_tag_events())


def dense_reference_train(events, p0, cfg):
    """The dense trainer that train_smoother replaced: every event builds
    the C x A conditioning gradient from the dense aux vector and takes
    the clipped l1 step on all of V."""
    events = list(events)
    by_clip = {}  # clip id -> that clip's events, in their order
    for e in events:
        by_clip.setdefault(e.clip, []).append(e)

    def step(p, i, rng):
        e = events[i]
        u = other_users_avg(by_clip[e.clip], e.user)
        a = build_aux(e.user, e.track, e.clip, p.aux_sizes)
        h0, hK, y = (s[0] for s in cd_chain((p.c + p.W @ u)[None],
                                            p.d + p.V @ a, p.U, e.y[None],
                                            cfg.k, rng))
        dV = np.outer(e.y - y, a)
        dW = np.outer(h0 - hK, u)
        if cfg.l1 > 0:
            dV = dV - cfg.l1 * np.sign(p.V)
            dW = dW - cfg.l1 * np.sign(p.W)
        p.U += cfg.lr * (np.outer(h0, e.y) - np.outer(hK, y))
        p.c += cfg.lr * (h0 - hK)
        p.d += cfg.lr * (e.y - y)
        p.W = _clip_step(np.sign(p.W), p.W + cfg.lr * dW)
        p.V = _clip_step(np.sign(p.V), p.V + cfg.lr * dV)

    return sgd(p0, len(events), step, cfg)


def lazy_reference_train(events, p0, cfg):
    """The lazy-l1 trainer as first written, frozen: each step catches its
    three columns of V up in place, gathers them again for the gradient
    and for the clipped step, builds dU, dW and dV as np.outer products,
    and clips and shrinks in the np.where forms."""
    events = list(events)
    by_clip = {}  # clip id -> that clip's events, in their order
    for e in events:
        by_clip.setdefault(e.clip, []).append(e)
    per_step = cfg.lr * cfg.l1
    t = 0
    done = np.zeros(p0.A, dtype=np.int64)

    def catch_up(V, c):
        amount = (t - done[c]) * per_step
        v = V[:, c]
        V[:, c] = np.where(np.abs(v) <= amount, 0.0, v - np.sign(v) * amount)
        done[c] = t

    def step(p, i, rng):
        nonlocal t
        e = events[i]
        u = other_users_avg(by_clip[e.clip], e.user)
        c = _block_columns(np.array([e[:3]]), p.aux_sizes)[0]
        catch_up(p.V, c)
        V = p.V[:, c]
        h0, hK, y = (s[0] for s in cd_chain((p.c + p.W @ u)[None],
                                            p.d + V.sum(axis=1), p.U,
                                            e.y[None], cfg.k, rng))
        dU = np.outer(h0, e.y) - np.outer(hK, y)
        dW = np.outer(h0 - hK, u)
        dV = np.outer(e.y - y, np.ones(len(c)))
        if cfg.l1 > 0:
            dV = dV - cfg.l1 * np.sign(V)
            dW = dW - cfg.l1 * np.sign(p.W)
        p.U += cfg.lr * dU
        p.c += cfg.lr * (h0 - hK)
        p.d += cfg.lr * (e.y - y)
        p.W = where_clip_step(p.W, p.W + cfg.lr * dW)
        V = p.V[:, c]
        p.V[:, c] = where_clip_step(V, V + cfg.lr * dV)
        t += 1
        done[c] = t
        if t % len(events) == 0:
            catch_up(p.V, slice(None))

    return sgd(p0, len(events), step, cfg)


def sparse_corpus(seed, clips=30, spare=(2, 3, 10)):
    """Events on `clips` clips (one track each, three of six users per
    clip) under identity blocks with `spare` extra users, tracks and
    clips that no event names, so their columns of V are never touched;
    V starts uniform in (-0.3, 0.3), so l1 takes epochs to zero them."""
    _, _, events = synthetic.make_cooccurrence_corpus(clips, seed)
    sizes = (6 + spare[0], clips + spare[1], clips + spare[2])
    p0 = SmootherParams.random_init(4, 3, sizes, np.random.default_rng(seed),
                                    scale=0.3)
    return events, p0


PARAM_ARRAYS = ("U", "W", "V", "c", "d")


class TestLazyL1MatchesDenseTrainer:
    @pytest.mark.parametrize("k", [1, 2])
    def test_identical_without_penalty(self, k):
        events, p0 = sparse_corpus(5)
        cfg = TrainConfig(estimator="cd", k=k, lr=0.1, epochs=3, seed=2)
        got = train_smoother(Events.from_tag_events(events), p0, cfg)
        want = dense_reference_train(events, p0, cfg)
        for name in PARAM_ARRAYS:
            np.testing.assert_array_equal(getattr(got, name),
                                          getattr(want, name))

    def test_close_with_penalty(self):
        events, p0 = sparse_corpus(7)
        cfg = TrainConfig(estimator="cd", k=1, lr=0.1, epochs=6, seed=4,
                          l1=0.03)
        got = train_smoother(Events.from_tag_events(events), p0, cfg)
        want = dense_reference_train(events, p0, cfg)
        for name in PARAM_ARRAYS:
            np.testing.assert_allclose(getattr(got, name),
                                       getattr(want, name), rtol=0,
                                       atol=1e-12)
        # most of V is parked at exactly zero, the untouched columns too
        assert np.mean(want.V == 0.0) > 0.5
        assert np.all(want.V[:, -10:] == 0.0)
        assert np.sum(got.V == 0.0) == np.sum(want.V == 0.0)

    @pytest.mark.parametrize("k", [1, 2])
    def test_bit_identical_to_the_frozen_lazy_step_with_penalty(self, k):
        events, p0 = sparse_corpus(7)
        cfg = TrainConfig(estimator="cd", k=k, lr=0.1, epochs=6, seed=4,
                          l1=0.03)
        got = train_smoother(Events.from_tag_events(events), p0, cfg)
        want = lazy_reference_train(events, p0, cfg)
        assert np.mean(want.V == 0.0) > 0.5
        for name in PARAM_ARRAYS:
            assert getattr(got, name).tobytes() == \
                getattr(want, name).tobytes()

    @pytest.mark.parametrize("bad", [np.nan, 2 * DIVERGENCE_LIMIT])
    def test_divergence_guard_sees_untouched_columns(self, bad):
        # the only blow-up sits in a clip column that no event touches,
        # so only the end-of-epoch catch-up brings it into view
        events, p0 = sparse_corpus(3)
        p0.V[1, -1] = bad
        cfg = TrainConfig(estimator="cd", k=1, lr=0.01, epochs=1, seed=0,
                          l1=0.001)
        with pytest.raises(DivergenceError):
            train_smoother(Events.from_tag_events(events), p0, cfg)


class TestTrainSmoother:
    def test_returns_new_params_deterministically(self, rng):
        p0 = SmootherParams.random_init(2, 2, (2, 2, 2), rng)
        cfg = TrainConfig(estimator="cd", k=1, lr=0.05, epochs=4, seed=3)
        a = train_smoother(toy_events(), p0, cfg)
        b = train_smoother(toy_events(), p0, cfg)
        np.testing.assert_array_equal(a.U, b.U)
        np.testing.assert_array_equal(a.V, b.V)
        assert not np.array_equal(a.U, p0.U)

    def test_logging_leaves_parameters_unchanged(self, rng):
        p0 = SmootherParams.random_init(2, 2, (2, 2, 2), rng)
        cfg = TrainConfig(estimator="cd", k=1, lr=0.05, epochs=3, seed=3,
                          l1=0.01)
        records = io.StringIO()
        logged = train_smoother(toy_events(), p0, cfg, records)
        plain = train_smoother(toy_events(), p0, cfg)
        for name in PARAM_ARRAYS:
            assert getattr(plain, name).tobytes() == \
                getattr(logged, name).tobytes()
        records = [json.loads(r) for r in records.getvalue().splitlines()]
        assert [(r["kind"], r["epoch"], r["objective"], r["value"])
                for r in records] == [("smoother", e, None, None)
                                      for e in range(3)]

    def test_l1_shrinks_conditioning_weights(self, rng):
        p0 = SmootherParams.random_init(2, 2, (2, 2, 2), rng, scale=0.001)
        plain = TrainConfig(estimator="cd", k=1, lr=0.1, epochs=10, seed=0)
        penal = TrainConfig(estimator="cd", k=1, lr=0.1, epochs=10, seed=0,
                            l1=0.5)
        a = train_smoother(toy_events(), p0, plain)
        b = train_smoother(toy_events(), p0, penal)
        assert np.sum(np.abs(b.V)) < np.sum(np.abs(a.V))
        # a penalty this large parks most weights exactly at zero
        assert np.mean(b.V == 0.0) > 0.5

    def test_divergence_guard(self, rng):
        p0 = SmootherParams.random_init(2, 2, (2, 2, 2), rng)
        cfg = TrainConfig(estimator="cd", k=1, lr=1e7, epochs=3, seed=0)
        with pytest.raises(DivergenceError):
            train_smoother(toy_events(), p0, cfg)

    @pytest.mark.parametrize("ids, bad", [
        ((2, 0, 0), 2), ((0, -1, 1), -1), ((0, 1, 2), 2)],
        ids=["user", "track", "clip"])
    def test_id_out_of_range_rejected(self, rng, ids, bad):
        p0 = SmootherParams.random_init(2, 2, (2, 2, 2), rng)
        events = Events.from_tag_events(
            toy_tag_events() + [TagEvent(*ids, np.array([1.0, 0.0]))])
        with pytest.raises(IndexError, match=f"^id {bad} out of range for "
                                             "block of size 2$"):
            train_smoother(events, p0, TrainConfig())

    def test_label_other_than_0_1_rejected(self, rng):
        p0 = SmootherParams.random_init(2, 2, (2, 2, 2), rng)
        events = Events.from_tag_events(
            toy_tag_events() + [TagEvent(1, 1, 1, np.array([0.5, 0.0]))])
        with pytest.raises(ValueError, match="labels must be 0/1"):
            train_smoother(events, p0, TrainConfig())

    def test_empty_events_rejected(self, rng):
        p0 = SmootherParams.random_init(2, 2, (2, 2, 2), rng)
        events = Events(np.zeros((0, 3), dtype=np.intp), np.zeros((0, 2)))
        with pytest.raises(ValueError):
            train_smoother(events, p0, TrainConfig())


def row_smooth(clip, track, p, events, tol=1e-8, max_iter=500):
    """One clip as the per-clip smoother computed it: np.mean over the
    clip's events, 1-d products, and the row mean-field loop."""
    u = np.mean(np.asarray([e.y for e in events if e.clip == clip]), axis=0)
    cols = _block_columns(np.array([[track, clip]]), p.aux_sizes, first=1)[0]
    hid, vis = p.c + p.W @ u, p.d + p.V[:, cols].sum(axis=1)
    y = u
    for _ in range(max_iter):
        y_new = sigm(vis + p.U.T @ sigm(hid + p.U @ y))
        if np.max(np.abs(y_new - y), initial=0.0) < tol:
            return y_new
        y = y_new
    return y


class TestSmoothTags:
    def test_decoupled_model_returns_identity_bias_probs(self, rng):
        p = small_smoother(rng, C=2)
        p.U[:] = 0.0
        p.W[:] = 0.0
        events = toy_events()
        out = smooth_tags(p, events)[:1]
        a = build_aux(None, 0, 0, p.aux_sizes)
        np.testing.assert_allclose(out, sigm(p.d + p.V @ a)[None], atol=1e-8)

    def test_matches_dense_aux_product(self, rng):
        p = small_smoother(rng, C=2, scale=1.0)
        events = toy_events()
        got = smooth_tags(p, events)
        for clip in (0, 1):
            u = np.mean(events.Y[events.ids[:, 2] == clip], axis=0)
            a = build_aux(None, clip, clip, p.aux_sizes)
            want = mean_field((p.c + p.W @ u)[None], p.d + p.V @ a, p.U,
                              u[None], 500, 1e-8)[0]
            np.testing.assert_allclose(got[clip], want, rtol=0, atol=1e-12)

    def test_batch_equals_per_clip_reference(self):
        # clips with 1 to 4 users, soft tag vectors so that the averages
        # depend on summation order, shuffled events, rows that converge
        # at different steps
        rng = np.random.default_rng(4)
        n_clips, C = 40, 3
        events = [TagEvent(int(u), int(c) % 5, int(c), rng.random(C))
                  for c in range(n_clips)
                  for u in rng.choice(6, rng.integers(1, 5), replace=False)]
        events = [events[i] for i in rng.permutation(len(events))]
        p = SmootherParams.random_init(4, C, (6, 5, n_clips), rng, scale=1.5)
        got = smooth_tags(p, Events.from_tag_events(events))
        assert got.shape == (n_clips, C)
        for clip, row in enumerate(got):
            want = row_smooth(clip, clip % 5, p, events)
            assert row.tobytes() == want.tobytes()

    def test_output_in_unit_interval(self, rng):
        p = small_smoother(rng, C=2, scale=1.0)
        out = smooth_tags(p, toy_events())[1:]
        assert np.all((out >= 0) & (out <= 1))

    def test_track_out_of_range(self, rng):
        p = small_smoother(rng, C=2)
        events = toy_events()
        events.ids[0, 1] = 2
        with pytest.raises(IndexError):
            smooth_tags(p, events)


class TestSmoothedDataset:
    def test_mixes_smoothed_and_hard_rows(self):
        from multitag.data import ThreeStateTagMatrix

        m = ThreeStateTagMatrix(["a", "b"], ["t0", "t1"],
                                np.array([[1, -1], [0, 1]], dtype=np.int8))
        out = smoothed_dataset(m, {"a": np.array([0.7, 0.2])})
        np.testing.assert_allclose(out[0], [0.7, 0.2])
        np.testing.assert_array_equal(out[1], [0.0, 1.0])

    def test_rejects_out_of_range_targets(self):
        from multitag.data import ThreeStateTagMatrix

        m = ThreeStateTagMatrix(["a"], ["t0"], np.array([[1]], dtype=np.int8))
        with pytest.raises(ValueError):
            smoothed_dataset(m, {"a": np.array([1.2])})
