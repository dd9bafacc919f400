"""Discrete CRF baseline tagger: features, training, exact k-best decoding.

The submodules are `features`, `crf` (numpy) and `nbest` (numpy-free;
it imports `crf` only inside the functions that train or decode).
"""
