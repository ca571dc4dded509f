import numpy as np
import pytest

from multitag.data import Counts
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


def as_dict(counts: Counts) -> dict:
    """Coded counts as a {(item, tag): count} dict."""
    return {(counts.items[i], counts.tags[t]): u for i, t, u in
            zip(counts.item.tolist(), counts.tag.tolist(),
                counts.users.tolist())}


@pytest.fixture
def rng():
    return np.random.default_rng(0)
