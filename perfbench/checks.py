"""Output checks.  Each one compares the program's output with a
computation made here, apart from the program (a recount of the triples,
scipy's Mann-Whitney U, one more mean-field step, the enumeration
oracle), or with a property the method must have.  None compares with a
stored copy of earlier output.

Every check returns ``(ok, detail)``.
"""

from __future__ import annotations

import math
from collections import defaultdict
from statistics import NormalDist

import numpy as np

# A gradient has 34 entries at (C, n, D) = (4, 3, 5).  Testing each at
# 3 standard errors would fail about one seed in twelve by chance alone,
# so the per-entry limit keeps the chance of any entry failing on a
# correct program at 1e-6 (Bonferroni); a 10-SE error still fails.
FAMILY_FALSE_ALARM = 1e-6


def z_limit(entries):
    return NormalDist().inv_cdf(1 - FAMILY_FALSE_ALARM / (2 * entries))


# ---------------------------------------------------------------- files

def read_triples(path):
    """Distinct (user, item, tag) lines of a triples file."""
    with open(path, encoding="utf-8") as fh:
        return {tuple(line.rstrip("\n").split("\t")) for line in fh
                if line.strip()}


def user_counts(triples):
    """(item, tag) -> number of distinct users."""
    counts = defaultdict(int)
    for _, item, tag in triples:
        counts[(item, tag)] += 1
    return counts


def read_table(path, header):
    """Rows of a tab-separated file as (first column, remaining columns)."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    head = lines[0].split("\t") if header else None
    rows = [line.split("\t") for line in lines[1 if header else 0:] if line]
    return head, [r[0] for r in rows], [r[1:] for r in rows]


def read_features(path):
    _, items, cols = read_table(path, header=False)
    return items, np.array(cols, dtype=float)


def read_matrix(path):
    head, items, cols = read_table(path, header=True)
    return head[1:], items, np.array(cols, dtype="<U1")


# ---------------------------------------------------------------- ingest

def expected_vocab(counts, size):
    totals = defaultdict(int)
    for (_, tag), n in counts.items():
        totals[tag] += n
    return sorted(totals, key=lambda t: (-totals[t], t))[:size]


def check_ingest(triples, features_in, vocab, items, cells, features_out,
                 vocab_size, min_positive):
    """The matrix is the recount of the triples for the items that have
    features; the features are the standardized inputs scaled to unit
    norm (or zero), in the matrix's item order."""
    in_items, X = features_in
    out_items, Z = features_out
    counts = user_counts(triples)
    want_vocab = expected_vocab(counts, vocab_size)
    if vocab != want_vocab:
        return False, f"vocab {vocab} != recount {want_vocab}"
    if items != sorted(in_items) or out_items != items:
        return False, "item order differs from the sorted feature items"
    want = np.full(cells.shape, "N")
    for i, item in enumerate(items):
        for j, tag in enumerate(vocab):
            n = counts.get((item, tag), 0)
            if n >= min_positive:
                want[i, j] = "P"
            elif n > 0:
                want[i, j] = "U"
    bad = np.argwhere(want != cells)
    if len(bad):
        i, j = bad[0]
        return False, (f"{len(bad)} cells differ from the recount, first "
                       f"{items[i]}/{vocab[j]}: {cells[i, j]} != {want[i, j]}")
    norms = np.linalg.norm(Z, axis=1)
    if not np.all((np.abs(norms - 1) < 1e-9) | (norms == 0)):
        return False, "a feature row is neither unit norm nor zero"
    position = {item: i for i, item in enumerate(in_items)}
    rows = X[[position[item] for item in items]]
    std = rows.std(axis=0)
    S = np.where(std > 0, (rows - rows.mean(axis=0)) / np.where(std > 0, std, 1),
                 0.0)
    n = np.linalg.norm(S, axis=1, keepdims=True)
    S = np.where(n > 0, S / np.where(n > 0, n, 1), 0.0)
    if not np.allclose(S, Z, rtol=0, atol=1e-9):
        return False, "feature rows are not the standardized inputs"
    return True, f"{len(items)} items x {len(vocab)} tags match the recount"


# ---------------------------------------------------------------- eval

def read_auc_report(path):
    """auc_a.tsv -> {(tag, fold): auc or nan}."""
    _, _, cols = read_table(path, header=True)
    return {(tag, int(fold)): (math.nan if v == "NA" else float(v))
            for tag, fold, v in cols}


def check_fold_auc(scores, cells, vocab, reported, fold):
    """Per-tag AUC of one fold recomputed with scipy's Mann-Whitney U;
    unknown cells are left out, a tag with an empty class is NA."""
    from scipy.stats import mannwhitneyu

    for j, tag in enumerate(vocab):
        pos = scores[cells[:, j] == "P", j]
        neg = scores[cells[:, j] == "N", j]
        got = reported[(tag, fold)]
        if len(pos) == 0 or len(neg) == 0:
            if not math.isnan(got):
                return False, f"{tag}: reported {got}, want NA"
            continue
        u = mannwhitneyu(pos, neg, alternative="two-sided").statistic
        want = u / (len(pos) * len(neg))
        if not abs(want - got) <= 1e-12:
            return False, f"{tag} fold {fold}: reported {got}, scipy {want}"
    return True, f"fold {fold}: {len(vocab)} tags match scipy"


def check_beats_chance(values):
    """Criterion 12: the grand mean AUC beats 0.5 + 3 sigma."""
    cells = np.array([v for v in values if not math.isnan(v)])
    sigma = float(np.std(cells, ddof=1)) / math.sqrt(len(cells))
    grand = float(np.mean(cells))
    return grand > 0.5 + 3 * sigma, f"grand mean {grand:.4f}, 3 sigma {3 * sigma:.4f}"


# ---------------------------------------------------------------- smooth

def sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def smoother_inputs(triples, vocab):
    """What `multitag smooth` feeds the model for each clip, worked out
    from the triples: {clip: mean of its users' tag vectors}, the number
    of users, and the sorted clips (each clip is its own track)."""
    col = {t: j for j, t in enumerate(vocab)}
    users = sorted({u for u, _, _ in triples})
    clips = sorted({c for _, c, _ in triples})
    vectors = defaultdict(lambda: np.zeros(len(vocab)))
    for user, clip, tag in triples:
        vec = vectors[(user, clip)]
        if tag in col:
            vec[col[tag]] = 1.0
    per_clip = defaultdict(list)
    for (user, clip), vec in vectors.items():
        per_clip[clip].append(vec)
    mean = {c: np.mean(per_clip[c], axis=0) for c in clips}
    return mean, len(users), clips


def check_smoothed(smoothed_items, Y, model, mean, n_users, clips, tol=1e-6):
    """Every smoothed row lies in [0, 1] and is a mean-field fixed point of
    the saved smoother: one more step moves it by at most ``tol``."""
    if smoothed_items != clips:
        return False, "smoothed rows are not the sorted clips"
    if np.any(Y < 0) or np.any(Y > 1):
        return False, "a smoothed probability lies outside [0, 1]"
    n_clips = len(clips)
    avg = np.array([mean[c] for c in clips])
    ids = np.arange(n_clips)
    hid = model.c + avg @ model.W.T
    vis = model.d + (model.V[:, n_users + ids] + model.V[:, n_users + n_clips + ids]).T
    step = sigmoid(vis + sigmoid(hid + Y @ model.U.T) @ model.U)
    gap = float(np.max(np.abs(step - Y)))
    return gap <= tol, f"largest move of one more mean-field step {gap:.2e}"


# ---------------------------------------------------------------- kernels

def check_cd_mean(total, total_sq, runs, exact):
    """The Monte Carlo mean of CD-50 lies within the family-wise limit of
    standard errors of the exact gradient in every entry."""
    mean = total / runs
    se = np.sqrt(np.maximum(total_sq / runs - mean * mean, 0.0) / runs)
    z = np.abs(mean - exact) / np.where(se > 0, se, 1.0)
    limit = z_limit(len(exact))
    worst = float(np.max(z))
    return worst < limit, f"largest z {worst:.2f} < {limit:.2f} over {runs} runs"


def check_bp_fixed_point(m_k, m_2k, tol=1e-6):
    """K and 2K sweeps agree, which holds at a fixed point."""
    gap = max(float(np.max(np.abs(a - b))) for a, b in
              ((m_k.y_marg, m_2k.y_marg), (m_k.h_marg, m_2k.h_marg),
               (m_k.pair_marg, m_2k.pair_marg)))
    return gap <= tol, f"K vs 2K sweeps differ by {gap:.2e}"


def check_directional(analytic, numeric, tol=1e-6):
    """A gradient dotted with a direction matches a central difference."""
    gap = abs(analytic - numeric)
    return gap <= tol * max(1.0, abs(numeric)), \
        f"directional derivative {analytic:.9f} vs {numeric:.9f}"
