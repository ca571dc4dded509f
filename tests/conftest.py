import numpy as np
import pytest

from multitag.core import sigm
from multitag.data import Counts, read_matrix, write_ingested
from multitag.inference import lbp_sweeps
from multitag.oracle import Marginals
from multitag.verify import random_instance  # noqa: F401  (tests import it from here)


def coded(records: dict) -> Counts:
    """A {(item, tag): count} dict as the coded counts `condense` returns."""
    items = sorted({item for item, _ in records})
    tags = sorted({tag for _, tag in records})
    pairs = sorted((items.index(item), tags.index(tag), count)
                   for (item, tag), count in records.items())
    item, tag, users = (np.array(column, dtype=np.int64) for column in
                        (zip(*pairs) if pairs else ((),) * 3))
    return Counts(items, tags, item, tag, users)


def reference_pair(down, up, p, c_data, printed_pair_normalizer):
    """lbp_marginals' pairwise marginal as a four-way log-sum-exp over a
    stacked (4, n, C) copy, as it was before the closed form (frozen
    reference); the printed normalizer leaves out the (0,0) term."""
    num01 = p.d[None, :] + down.sum(axis=0, keepdims=True) - down
    num10 = c_data[:, None] + up.sum(axis=1, keepdims=True) - up
    num11 = p.U + num01 + num10
    stacked = [num11, num01, num10]
    if not printed_pair_normalizer:
        stacked.append(np.zeros_like(num11))
    stacked = np.stack(stacked)
    m = stacked.max(axis=0)
    lse = m + np.log(np.sum(np.exp(stacked - m), axis=0))
    return np.exp(num11 - lse), num01, num10


def printed_lbp_marginals(x, p, K, beta):
    """lbp_marginals with the uncorrected three-term ("printed") pairwise
    normalizer: the negative control that the tree and independence
    checks must catch."""
    c_data = p.c + p.W @ x
    down, up = lbp_sweeps(c_data[None, :], p.d, p.U, K, beta)
    down, up = down[0], up[0]
    return Marginals(sigm(p.d + down.sum(axis=0)),
                     sigm(c_data + up.sum(axis=1)),
                     reference_pair(down, up, p, c_data, True)[0])


def as_dict(counts: Counts) -> dict:
    """Coded counts as a {(item, tag): count} dict."""
    return {(counts.items[i], counts.tags[t]): u for i, t, u in
            zip(counts.item.tolist(), counts.tag.tolist(),
                counts.users.tolist())}


@pytest.fixture
def rng():
    return np.random.default_rng(0)


# the ways an ingested directory can be wrong
INGESTED_DEFECTS = ["no-items", "no-copy", "truncated", "pickled", "float32",
                    "wrong-rows", "non-finite", "short-matrix", "short-items",
                    "duplicate-id", "items-not-utf8"]


def _drop_last_line(path):
    path.write_bytes(b"".join(path.read_bytes().splitlines(True)[:-1]))


def break_ingested(directory, defect):
    """Damage the ingested ``directory`` as ``defect`` (one of
    INGESTED_DEFECTS) names.  Returns the start of the error message,
    which names the file at fault."""
    items, copy = directory / "items.txt", directory / "features.npy"
    matrix = directory / "matrix.tsv"
    X = np.load(copy)
    second = items.read_text(encoding="utf-8").split("\n")[1]
    if defect == "no-items":
        items.unlink()
        return f"{items}: no such file; re-run ingest"
    if defect == "no-copy":
        copy.unlink()
        return f"{copy}: no such file; re-run ingest"
    if defect == "truncated":  # numpy's own message
        copy.write_bytes(copy.read_bytes()[:100])
        return f"{copy}: EOF: reading array header"
    if defect == "pickled":  # numpy's own message
        np.save(copy, np.array([X], dtype=object), allow_pickle=True)
        return f"{copy}: Object arrays cannot be loaded"
    if defect == "items-not-utf8":  # a UTF-16 byte-order mark
        items.write_bytes(b"\xff\xfe" + items.read_bytes())
        return f"{items}:1: not UTF-8: byte 0xff"
    if defect == "duplicate-id":  # the first item's id on the second row
        table = read_matrix(matrix)
        table.items[1] = table.items[0]
        write_ingested(directory, table, X)
        return f"{matrix}:3: duplicate item id {table.items[0]!r}"
    # the shorter file has no line where the two differ
    if defect == "short-matrix":
        _drop_last_line(matrix)
        return f"{items} lists {len(X)} items, {matrix} {len(X) - 1}"
    if defect == "short-items":
        _drop_last_line(items)
        np.save(copy, X[:-1])
        return f"{items} lists {len(X) - 1} items, {matrix} {len(X)}"
    expected = (f"{copy}: expected a float64 ({len(X)}, D) array, one row "
                f"per id of items.txt, got ")
    if defect == "float32":
        np.save(copy, np.zeros(X.shape, np.float32))
        return f"{expected}float32 {X.shape}"
    if defect == "wrong-rows":
        np.save(copy, X[:-1])
        return f"{expected}float64 {X[:-1].shape}"
    assert defect == "non-finite"
    X[1, -1] = np.nan
    np.save(copy, X)
    return f"{copy}: non-finite feature value for item {second!r}"
