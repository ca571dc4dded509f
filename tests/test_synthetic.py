import math
import runpy
import sys
from pathlib import Path

import numpy as np
import pytest

from multitag.core import sigm
from multitag.data import read_features, read_triples
from multitag.smoother import TagEvent
from multitag.synthetic import (make_cooccurrence_corpus,
                                make_dependency_corpus, make_tag_corpus,
                                write_corpus_files)


class TestTagCorpus:
    def test_shapes_and_determinism(self):
        X, Y = make_tag_corpus(50, C=4, D=6, seed=3)
        assert X.shape == (50, 6) and Y.shape == (50, 4)
        assert set(np.unique(Y)) <= {0.0, 1.0}
        X2, Y2 = make_tag_corpus(50, C=4, D=6, seed=3)
        np.testing.assert_array_equal(X, X2)
        np.testing.assert_array_equal(Y, Y2)

    def test_labels_depend_on_features(self):
        # features must carry signal about the tags for AUC experiments
        X, Y = make_tag_corpus(500, C=3, D=5, seed=0)
        for j in range(3):
            pos = X[Y[:, j] == 1].mean(axis=0)
            neg = X[Y[:, j] == 0].mean(axis=0)
            assert np.max(np.abs(pos - neg)) > 0.1


class TestDependencyCorpus:
    def test_second_tag_is_noisy_copy(self):
        X, Y = make_dependency_corpus(2000, seed=1)
        assert Y.shape[1] == 2
        agree = float(np.mean(Y[:, 0] == Y[:, 1]))
        assert 0.85 < agree < 0.95


def loop_cooccurrence_corpus(n_clips, seed, drop=0.5):
    """make_cooccurrence_corpus as it was before its events were built as
    one block: one event at a time, one scalar draw per present tag
    (frozen reference)."""
    rng = np.random.default_rng(seed)
    w = rng.normal(size=3) * 2.0
    X = rng.normal(size=(n_clips, 3))
    present = (rng.random(n_clips) < sigm(X @ w)).astype(float)
    extra = (rng.random(n_clips) < 0.3).astype(float)
    Y_true = np.stack([present, present, extra], axis=1)
    events = []
    for clip in range(n_clips):
        for u in range(3):
            user = (clip * 3 + u) % 6
            y = Y_true[clip].copy()
            if y[1] == 1 and rng.random() < drop:
                y[1] = 0.0
            if y[2] == 1 and rng.random() < 0.5:
                y[2] = 0.0
            events.append(TagEvent(user=user, track=clip, clip=clip, y=y))
    return X, Y_true, events


class TestCooccurrenceCorpus:
    @pytest.mark.parametrize("n_clips", [0, 1, 7, 300, 3000])
    @pytest.mark.parametrize("drop", [0, 0.5, 0.8, 1])  # both ends accepted
    def test_matches_per_event_loop(self, n_clips, drop):
        for seed in range(5):
            X, Y_true, events = make_cooccurrence_corpus(n_clips, seed, drop)
            X0, Y0, events0 = loop_cooccurrence_corpus(n_clips, seed, drop)
            assert X.tobytes() == X0.tobytes()
            assert Y_true.tobytes() == Y0.tobytes()
            assert len(events) == len(events0)
            for e, e0 in zip(events, events0):
                assert type(e) is TagEvent
                assert [type(i) for i in e[:3]] == [int] * 3
                assert e[:3] == e0[:3]
                assert e.y.dtype == np.float64 and e.y.shape == (3,)
                assert e.y.tobytes() == e0.y.tobytes()

    @pytest.mark.parametrize("drop", [1.5, -0.1, math.nan])
    def test_rejects_drop_outside_unit_interval(self, drop):
        with pytest.raises(ValueError, match=f"got {drop!r}"):
            make_cooccurrence_corpus(5, seed=0, drop=drop)

    def test_smoothing_script_reports_bad_drop(self, monkeypatch, capsys):
        script = Path(__file__).parents[1] / "scripts" / "run_smoothing.py"
        monkeypatch.setattr(sys, "argv", [str(script), "--seeds", "0",
                                          "--drop", "1.5"])
        with pytest.raises(SystemExit) as exit_:
            runpy.run_path(str(script), run_name="__main__")
        assert exit_.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines()[-1] == (
            "run_smoothing.py: error: drop must lie in [0, 1], got 1.5")

    def test_underreporting_only_drops_positives(self):
        X, Y_true, events = make_cooccurrence_corpus(100, seed=4, drop=0.5)
        index = {}
        for e in events:
            index.setdefault(e.clip, []).append(e)
        for clip, clip_events in index.items():
            reported = np.max([e.y for e in clip_events], axis=0)
            assert np.all(reported <= Y_true[clip])

    def test_tag_one_reported_less_often(self):
        _, Y_true, events = make_cooccurrence_corpus(300, seed=0, drop=0.8)
        reported = np.zeros_like(Y_true)
        for e in events:
            reported[e.clip] = np.maximum(reported[e.clip], e.y)
        both = Y_true[:, 0] == 1
        assert reported[both, 1].mean() < reported[both, 0].mean()


def test_write_corpus_files_round_trip(tmp_path):
    X, Y = make_tag_corpus(20, C=3, D=4, seed=9)
    tags = ["rock", "jazz", "pop"]
    write_corpus_files(tmp_path, X, Y, tags)
    triples = read_triples(tmp_path / "triples.tsv")
    items, X_read = read_features(tmp_path / "features.tsv")
    assert len(items) == 20
    np.testing.assert_allclose(X_read, X)
    assert set(triples.tags) <= set(tags)
    # every positive cell shows up as at least one triple
    positives = {(items[i], tags[j])
                 for i, j in zip(*np.nonzero(Y))}
    assert {(triples.items[i], triples.tags[t])
            for _, i, t in triples.codes.tolist()} == positives
