"""Output checks that do not trust the program under test.

The benchmark parses the program's CoNLL and n-best outputs with its own
readers, aligns them with the gold it generated, and scores chunk F1 with
its own span extraction (conlleval segments: an I-X that does not continue
an X segment opens a new one).
"""

from __future__ import annotations

import hashlib
from pathlib import Path

HEADER_PREFIX = "# nerrank"
TYPES = ("PER", "LOC", "ORG", "MISC")


class CheckFailed(Exception):
    """An output did not parse or did not match what it must match."""


def _valid_tag(tag: str) -> bool:
    return tag == "O" or (tag[:2] in ("B-", "I-") and tag[2:] in TYPES)


def _content_lines(path: Path) -> list[str]:
    lines = path.read_text(encoding="utf-8").splitlines()
    while lines and lines[0].startswith(HEADER_PREFIX):
        lines.pop(0)
    return lines


def read_conll(path: Path) -> list[tuple[list[str], list[str]]]:
    """(tokens, tags) per sentence; the tag is the last column."""
    out, tokens, tags = [], [], []
    for lineno, line in enumerate(_content_lines(path), start=1):
        if not line.strip():
            if tokens:
                out.append((tokens, tags))
                tokens, tags = [], []
            continue
        cols = line.split()
        if len(cols) < 2 or not _valid_tag(cols[-1]):
            raise CheckFailed(f"{path.name} line {lineno}: not a CoNLL token line: {line!r}")
        tokens.append(cols[0])
        tags.append(cols[-1])
    if tokens:
        out.append((tokens, tags))
    return out


def read_nbest(path: Path) -> list[dict]:
    """Blocks of {tokens, gold, cands: [(prob, tags)]} in file order."""
    blocks: list[dict] = []
    cur = None
    for lineno, line in enumerate(_content_lines(path), start=1):
        fields = line.split("\t")
        where = f"{path.name} line {lineno}"
        if not line.strip():
            cur = None
        elif line.startswith("#SENT "):
            cur = {"tokens": None, "gold": None, "cands": []}
            blocks.append(cur)
        elif cur is None:
            raise CheckFailed(f"{where}: content outside a #SENT block")
        elif fields[0] == "TOKENS":
            cur["tokens"] = fields[1:]
        elif fields[0] == "GOLD":
            cur["gold"] = fields[1:]
        elif fields[0] == "CAND":
            try:
                prob = float(fields[1])
            except (IndexError, ValueError):
                raise CheckFailed(f"{where}: bad candidate probability") from None
            cur["cands"].append((prob, fields[2:]))
        else:
            raise CheckFailed(f"{where}: unknown line kind {fields[0]!r}")
    return blocks


def check_nbest(path: Path, gold: list[tuple[list[str], list[str]]], k: int) -> list[dict]:
    """The n-best file holds one block per gold sentence, in order, with
    the gold tokens and tags, 1..k valid candidates of the right length,
    probabilities in (0, 1] sorted descending and summing to at most 1."""
    blocks = read_nbest(path)
    if len(blocks) != len(gold):
        raise CheckFailed(f"{path.name}: {len(blocks)} blocks for {len(gold)} sentences")
    for i, (block, (tokens, tags)) in enumerate(zip(blocks, gold)):
        where = f"{path.name} sentence {i}"
        if block["tokens"] != tokens:
            raise CheckFailed(f"{where}: tokens differ from the input")
        if block["gold"] is not None and block["gold"] != normalize(tags):
            raise CheckFailed(f"{where}: GOLD differs from the input tags")
        cands = block["cands"]
        if not 1 <= len(cands) <= k:
            raise CheckFailed(f"{where}: {len(cands)} candidates, expected 1..{k}")
        probs = [p for p, _ in cands]
        if any(not 0.0 < p <= 1.0 for p in probs) or probs != sorted(probs, reverse=True):
            raise CheckFailed(f"{where}: candidate probabilities out of range or unsorted")
        if sum(probs) > 1.0 + 1e-6:
            raise CheckFailed(f"{where}: candidate probabilities sum above 1")
        for _, cand in cands:
            if len(cand) != len(tokens) or not all(_valid_tag(t) for t in cand):
                raise CheckFailed(f"{where}: malformed candidate tags")
    return blocks


def check_predictions(path: Path, gold: list[tuple[list[str], list[str]]]) -> list[list[str]]:
    """A prediction file holds the gold tokens, sentence by sentence."""
    pred = read_conll(path)
    if len(pred) != len(gold):
        raise CheckFailed(f"{path.name}: {len(pred)} sentences for {len(gold)}")
    for i, ((ptoks, _), (gtoks, _)) in enumerate(zip(pred, gold)):
        if ptoks != gtoks:
            raise CheckFailed(f"{path.name} sentence {i}: tokens differ from gold")
    return [tags for _, tags in pred]


def normalize(tags: list[str]) -> list[str]:
    """Repair to BIO2: an I-X that does not continue X becomes B-X."""
    out = []
    prev = "O"
    for tag in tags:
        if tag.startswith("I-") and prev[2:] != tag[2:]:
            tag = "B-" + tag[2:]
        out.append(tag)
        prev = tag
    return out


def spans(tags: list[str]) -> set[tuple[int, int, str]]:
    found = set()
    start = None
    for i, tag in enumerate(normalize(tags) + ["O"]):
        if start is not None and not (tag.startswith("I-") and tag[2:] == kind):
            found.add((start, i - 1, kind))
            start = None
        if tag.startswith("B-"):
            start, kind = i, tag[2:]
    return found


def chunk_f1(gold: list[list[str]], pred: list[list[str]]) -> float:
    """Exact-span chunk F1 in points (0-100)."""
    tp = n_gold = n_pred = 0
    for g, p in zip(gold, pred, strict=True):
        gs, ps = spans(g), spans(p)
        tp += len(gs & ps)
        n_gold += len(gs)
        n_pred += len(ps)
    return 200.0 * tp / (n_gold + n_pred) if n_gold + n_pred else 0.0


def top_one(blocks: list[dict]) -> list[list[str]]:
    return [normalize(block["cands"][0][1]) for block in blocks]


def reverse_nbest(src: Path, dst: Path) -> None:
    """Write `src` with its sentence blocks in reverse order."""
    lines = src.read_text(encoding="utf-8").splitlines()
    header = []
    while lines and lines[0].startswith(HEADER_PREFIX):
        header.append(lines.pop(0))
    blocks = [b for b in "\n".join(lines).split("\n\n") if b.strip()]
    dst.write_text("\n".join(header + ["\n\n".join(reversed(blocks))]) + "\n\n",
                   encoding="utf-8")


def digest(paths: list[Path]) -> str:
    """One sha256 over the named files' bytes, in order."""
    h = hashlib.sha256()
    for path in paths:
        h.update(path.name.encode("utf-8") + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()[:16]
