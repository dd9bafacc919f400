"""Stage reporting: each stage of a run logs one line as it ends, with
its wall time and what it counted.

    with stage("jackknife fold 1/3", trained=7) as counts:
        ...
        counts["decoded"] = 4

logs `jackknife fold 1/3: 0.412 s, trained=7, decoded=4` at INFO on the
`nerrank.trace` logger. The counts given to `stage` come first, then those
the block adds to the dict it yields, in the order they were added; a
float prints with `.6g`. A block that raises logs nothing.

This is the package's one timer. It is stdlib only, so `import
nerrank.cli` loads no numpy.
"""

from __future__ import annotations

import logging
from contextlib import contextmanager
from time import perf_counter

log = logging.getLogger(__name__)


def _format(value) -> str:
    return format(value, ".6g") if isinstance(value, float) else str(value)


@contextmanager
def stage(name: str, **counts):
    """Time the block and log `<name>: <seconds> s, <key>=<value>, ...`
    when it ends without raising."""
    started = perf_counter()
    yield counts
    seconds = perf_counter() - started
    fields = "".join(f", {key}={_format(value)}" for key, value in counts.items())
    log.info("%s: %.3f s%s", name, seconds, fields)
