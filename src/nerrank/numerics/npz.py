"""The one npz encoder, shared by the CRF checkpoint and the scorer bundle."""

from __future__ import annotations

import zipfile

import numpy as np


def write_npz(fh, arrays: dict[str, np.ndarray]):
    """Write `arrays` to the open binary file `fh` as the bytes `np.savez`
    writes: one uncompressed `<name>.npy` entry per array, its .npy
    header, then its data, written from the array's own buffer where
    `np.savez` would copy it."""
    with zipfile.ZipFile(fh, "w", allowZip64=True) as archive:
        for name, array in arrays.items():
            array = np.ascontiguousarray(array)
            with archive.open(f"{name}.npy", "w", force_zip64=True) as entry:
                np.lib.format.write_array_header_1_0(entry, np.lib.format.header_data_from_array_1_0(array))
                entry.write(array.data)
