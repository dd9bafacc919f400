"""Helpers for the tests of how outputs are written: every output goes
through `nerrank.corpus.replacing`, which leaves nothing but the finished
file, or the previous one and no temporary."""

from pathlib import Path

import numpy as np


def temporaries(root) -> list[Path]:
    """The writer's temporary files anywhere under `root`."""
    return sorted(Path(root).rglob("*.tmp"))


def fail_npz_entry(monkeypatch, entry: int):
    """Make the npz encoder raise ENOSPC as it starts the archive's
    `entry`-th array (counting from 1), part way through the file."""
    original = np.lib.format.write_array_header_1_0
    started = []

    def write_header(fh, header):
        started.append(header)
        if len(started) == entry:
            raise OSError(28, "No space left on device")
        return original(fh, header)

    monkeypatch.setattr(np.lib.format, "write_array_header_1_0", write_header)
