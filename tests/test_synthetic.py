import numpy as np

from multitag.data import read_features, read_triples
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


class TestCooccurrenceCorpus:
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
    features = read_features(tmp_path / "features.tsv")
    assert len(features.items) == 20
    np.testing.assert_allclose(features.X, X)
    assert set(triples.tags) <= set(tags)
    # every positive cell shows up as at least one triple
    positives = {(features.items[i], tags[j])
                 for i, j in zip(*np.nonzero(Y))}
    assert {(triples.items[i], triples.tags[t])
            for _, i, t in triples.codes.tolist()} == positives
