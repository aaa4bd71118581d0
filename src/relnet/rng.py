"""Deterministic random streams.

Every sampling site derives its own ``random.Random`` stream from a root seed
plus a structural path that names the site, such as ``("layer", l,
"deleted")`` for the nodes deleted at layer l.  No two strata of a run share
a path, so their draws are independent; streams do not depend on iteration
order, so a fixed seed replays exactly.
"""

from __future__ import annotations

import hashlib
import random
from typing import Union

PathPart = Union[int, str]


def derive_seed(root: int, *path: PathPart) -> int:
    """The first 8 bytes of the SHA-256 of "root/part/part...", big-endian."""
    text = "/".join([str(int(root)), *map(str, path)])
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


def stream(root: int, *path: PathPart) -> random.Random:
    """Independent generator for the (seed, path) pair."""
    return random.Random(derive_seed(root, *path))
