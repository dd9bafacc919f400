"""CoNLL-format data model: tokens, BIO label sequences, entity spans.

All label sequences are normalized to BIO2 (IOB2) at load time: B-X opens
an entity of type X, I-X continues it, O is outside. CoNLL 2003 ships
IOB1-style tags; `normalize_to_bio2` converts either convention while
preserving conlleval segment structure.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, field

from .errors import ParseError

ENTITY_TYPES = ("PER", "LOC", "ORG", "MISC")
DOCSTART = "-DOCSTART-"

# Leading lines with this prefix are tool metadata and skipped by readers.
COMMENT_PREFIX = "# nerrank"


@dataclass(frozen=True)
class Token:
    """One surface token, optionally with a part-of-speech tag."""

    surface: str
    pos: str | None = None

    def __post_init__(self):
        if not self.surface or any(c.isspace() for c in self.surface):
            raise ValueError(f"token surface must be non-empty without whitespace: {self.surface!r}")


@dataclass(frozen=True)
class Sentence:
    id: int
    tokens: tuple[Token, ...]

    def __post_init__(self):
        if len(self.tokens) == 0:
            raise ValueError("a sentence needs at least one token")

    def __len__(self):
        return len(self.tokens)

    @property
    def surfaces(self) -> list[str]:
        return [t.surface for t in self.tokens]


@dataclass(frozen=True, order=True)
class BioLabel:
    """A BIO2 tag: position in {B, I, O} plus an entity type (absent for O)."""

    position: str
    entity_type: str | None = None

    def __post_init__(self):
        if self.position not in ("B", "I", "O"):
            raise ValueError(f"bad position tag {self.position!r}")
        if self.position == "O":
            if self.entity_type is not None:
                raise ValueError("O carries no entity type")
        elif self.entity_type not in ENTITY_TYPES:
            raise ValueError(f"unknown entity type {self.entity_type!r}")

    @classmethod
    def parse(cls, text: str) -> "BioLabel":
        if text == "O":
            return cls("O")
        if len(text) > 2 and text[1] == "-" and text[0] in ("B", "I"):
            return cls(text[0], text[2:])
        raise ValueError(f"malformed BIO tag {text!r}")

    def __str__(self):
        return "O" if self.position == "O" else f"{self.position}-{self.entity_type}"


O_LABEL = BioLabel("O")

# A label sequence is a plain list/tuple of BioLabel aligned with a sentence.
LabelSeq = list[BioLabel]


@dataclass(frozen=True)
class EntitySpan:
    """Inclusive token span [start, end] of one entity mention."""

    start: int
    end: int
    entity_type: str

    def __post_init__(self):
        if not (0 <= self.start <= self.end):
            raise ValueError(f"bad span bounds [{self.start}, {self.end}]")
        if self.entity_type not in ENTITY_TYPES:
            raise ValueError(f"unknown entity type {self.entity_type!r}")


@dataclass
class Dataset:
    """Sentences with aligned gold label sequences."""

    sentences: list[Sentence] = field(default_factory=list)
    gold: list[LabelSeq] = field(default_factory=list)

    def __post_init__(self):
        if len(self.sentences) != len(self.gold):
            raise ValueError(
                f"{len(self.sentences)} sentences but {len(self.gold)} label sequences"
            )
        ids = [s.id for s in self.sentences]
        if len(set(ids)) != len(ids):
            raise ValueError("sentence ids must be unique")
        for sent, labels in zip(self.sentences, self.gold):
            if len(sent) != len(labels):
                raise ValueError(f"sentence {sent.id}: {len(sent)} tokens vs {len(labels)} labels")

    def __len__(self):
        return len(self.sentences)

    def __iter__(self):
        return iter(zip(self.sentences, self.gold))


def read_text(path) -> str:
    """A whole UTF-8 text file with universal newlines; a byte that is not
    UTF-8 raises ParseError naming the file, the line and the byte."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"cannot decode byte 0x{data[exc.start]:02x} as utf-8 in {path} ({exc.reason})",
            line=data.count(b"\n", 0, exc.start) + 1,
        ) from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


@contextmanager
def replacing(path, binary: bool = False):
    """The one writer of every output: a new file (UTF-8 text, or bytes
    with `binary`) whose contents replace `path` whole when the block
    exits cleanly.

    A symlink is resolved, so it keeps pointing at the new file. The file
    is written to a temporary beside the target, `<path>.<pid>.<hex>.tmp`,
    made by a plain `open`, so it gets the mode bits a new file gets, and
    is then renamed onto the path; `rename(2)` is atomic within a file
    system. On any exception the temporary is removed and the previous
    file is left as it was. A path that exists but is not a regular file
    (`/dev/null`, a FIFO, a directory) is written in place: a rename would
    replace the device node, and a directory raises IsADirectoryError.
    """
    target = os.path.realpath(path)
    encoding = None if binary else "utf-8"
    if os.path.exists(target) and not os.path.isfile(target):
        with open(target, "wb" if binary else "w", encoding=encoding) as fh:
            yield fh
        return
    # the pid keeps two live writers apart; the random part, a stale
    # temporary that a killed writer of a reused pid left behind
    tmp = f"{target}.{os.getpid()}.{os.urandom(4).hex()}.tmp"
    try:
        fh = open(tmp, "xb" if binary else "x", encoding=encoding)
    except OSError as exc:
        exc.filename = os.fspath(path)  # name the output, not its temporary
        raise
    try:
        with fh:
            yield fh
        os.replace(tmp, target)
    except BaseException:
        os.remove(tmp)
        raise


def parse_conll(text: str) -> Dataset:
    """Parse CoNLL column text into a Dataset.

    One token per line, whitespace-separated columns, blank line between
    sentences. The NER tag is the last column; column 2 is POS when the
    line has at least 3 columns. `-DOCSTART-` lines delimit documents and
    produce no sentences. Tags are normalized to BIO2.
    """
    sentences: list[Sentence] = []
    gold: list[LabelSeq] = []
    tokens: list[Token] = []
    labels: list[BioLabel] = []
    seen_content = False

    def flush():
        if tokens:
            sid = len(sentences)
            sentences.append(Sentence(sid, tuple(tokens)))
            gold.append(normalize_to_bio2(labels))
            tokens.clear()
            labels.clear()

    for lineno, line in enumerate(text.splitlines(), start=1):
        if not seen_content and line.startswith(COMMENT_PREFIX):
            continue
        if not line.strip():
            flush()
            continue
        seen_content = True
        cols = line.split()
        if cols[0] == DOCSTART:
            flush()
            continue
        if len(cols) < 2:
            raise ParseError(f"expected at least 2 columns, got {len(cols)}: {line!r}", line=lineno)
        try:
            label = BioLabel.parse(cols[-1])
        except ValueError as exc:
            raise ParseError(str(exc), line=lineno) from exc
        pos = cols[1] if len(cols) >= 3 else None
        try:
            tokens.append(Token(cols[0], pos))
        except ValueError as exc:
            raise ParseError(str(exc), line=lineno) from exc
        labels.append(label)
    flush()
    return Dataset(sentences, gold)


def format_conll(dataset: Dataset) -> str:
    """Render two-column `token<TAB>tag` text."""
    blocks = [
        "\n".join(f"{t.surface}\t{l}" for t, l in zip(sent.tokens, labels))
        for sent, labels in dataset
    ]
    return "\n\n".join(blocks) + ("\n" if blocks else "")


def normalize_to_bio2(labels: LabelSeq) -> LabelSeq:
    """Repair a label sequence into valid BIO2.

    An I-X that does not continue an X segment becomes B-X. This converts
    IOB1 input and arbitrary invalid k-best output alike, preserving
    conlleval segment boundaries, and is the identity on valid BIO2.
    """
    out: LabelSeq = []
    prev = O_LABEL
    for label in labels:
        if label.position == "I" and not (
            prev.position in ("B", "I") and prev.entity_type == label.entity_type
        ):
            label = BioLabel("B", label.entity_type)
        out.append(label)
        prev = label
    return out


def extract_spans(labels: LabelSeq) -> set[EntitySpan]:
    """Extract entity spans from a BIO2-valid sequence.

    Raises ValueError on invalid BIO2 input; callers must normalize first.
    """
    spans: set[EntitySpan] = set()
    start = None
    cur_type = None
    for i, label in enumerate(labels):
        if label.position == "I":
            if cur_type is None or cur_type != label.entity_type:
                raise ValueError(f"invalid BIO2 at position {i}: {label} continues nothing")
            continue
        if cur_type is not None:
            spans.add(EntitySpan(start, i - 1, cur_type))
            start, cur_type = None, None
        if label.position == "B":
            start, cur_type = i, label.entity_type
    if cur_type is not None:
        spans.add(EntitySpan(start, len(labels) - 1, cur_type))
    return spans


def tag_accuracy(gold: LabelSeq, cand: LabelSeq) -> float:
    """Fraction of positions where the candidate label equals gold exactly."""
    if len(gold) != len(cand):
        raise ValueError(f"length mismatch: {len(gold)} vs {len(cand)}")
    if not gold:
        raise ValueError("empty sequences")
    hits = sum(1 for g, c in zip(gold, cand) if g == c)
    return hits / len(gold)
