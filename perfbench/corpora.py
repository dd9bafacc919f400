"""Seeded input generators for the benchmark workloads.

Everything here writes plain files (CoNLL, clusters) and never imports the
program under test, so the program receives only generated inputs. The same
seed always produces the same bytes. Sentence lengths and entity counts come
from fixed multisets that the seed only permutes, so the amount of work a
workload does is the same for every seed; only the words change.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

# ---------------------------------------------------------------------------
# the context-dependent template corpus (same design as the test suite's
# toy corpus): each surface in A_POOL is PER in half its sentences and ORG in
# the other half, and only the verb decides which; dev and test use an "-ing"
# inflection of the verbs that training never shows.

A_POOL = [
    "Aldorin", "Bremick", "Corvale", "Draventh", "Elmaris", "Fenwick",
    "Galdren", "Hartwell", "Ibsenor", "Jalvorn", "Kestrel", "Lormont",
]
PER_FIRST = ["Johnar", "Melwick", "Tovren", "Salvey"]
PER_LAST = ["Quell", "Braddock", "Hemsley", "Vardon"]
PER_ONLY = ["Marissa", "Teodric", "Halvena", "Osmund", "Petrina", "Quillon"]
LOC_ONLY = ["Romest", "Valderon", "Miraflow", "Skelmere", "Tarnwick", "Ulvestad"]
ORG_ONLY = ["Acmetron", "Borvex", "Cindral", "Dynacore", "Epharos", "Fintrex"]
MISC_ONLY = ["Festivale", "Grandprix", "Harvestide", "Imbolcane", "Jubilare", "Kermesse"]
PER_CUES = ["prandel", "smuvick", "tarquel"]
ORG_CUES = ["quorfin", "blenrad", "crovast"]
TRAIN_FORMS = ("", "s", "ed")
O_SENTENCES = [
    ["nothing", "much", "happened", "."],
    ["it", "all", "happened", "again", "."],
    ["the", "day", "went", "quietly", "."],
]
SPLIT_STREAM = {"train": 0, "dev": 1, "test": 2, "extra": 3}

Sentence = list  # [(token, pos or None, tag), ...]


def _pick(rng, pool):
    return pool[int(rng.integers(len(pool)))]


def _filler(kind, rng) -> Sentence:
    if kind == 0:
        words = [_pick(rng, PER_FIRST), _pick(rng, PER_LAST), "went", "to",
                 _pick(rng, LOC_ONLY), "."]
        tags = ["B-PER", "I-PER", "O", "O", "B-LOC", "O"]
    elif kind == 1:
        words = [_pick(rng, PER_ONLY), "joined", _pick(rng, ORG_ONLY), "."]
        tags = ["B-PER", "O", "B-ORG", "O"]
    elif kind == 2:
        words = ["the", _pick(rng, MISC_ONLY), "began", "."]
        tags = ["O", "B-MISC", "O", "O"]
    else:
        words = _pick(rng, O_SENTENCES)
        tags = ["O"] * len(words)
    return [(w, None, t) for w, t in zip(words, tags)]


def template_corpus(n: int, seed: int, split: str) -> list[Sentence]:
    """Half context-dependent sentences, half unambiguous fillers."""
    rng = np.random.default_rng([seed, SPLIT_STREAM[split]])
    out = []
    amb = 0
    for i in range(n):
        if i % 2:
            out.append(_filler((i // 2) % 4, rng))
            continue
        surface = A_POOL[amb % len(A_POOL)]
        fam = "PER" if (amb // len(A_POOL)) % 2 == 0 else "ORG"
        stem = _pick(rng, PER_CUES if fam == "PER" else ORG_CUES)
        if split != "train" and amb % 5 < 2:
            form = "ing"
        else:
            form = _pick(rng, TRAIN_FORMS)
        obj_pool, obj_type = (LOC_ONLY, "LOC") if amb % 2 == 0 else (MISC_ONLY, "MISC")
        words = [surface, stem + form, "the", _pick(rng, obj_pool), "."]
        tags = [f"B-{fam}", "O", "O", f"B-{obj_type}", "O"]
        out.append([(w, None, t) for w, t in zip(words, tags)])
        amb += 1
    return out


# ---------------------------------------------------------------------------
# Zipfian news-like corpus: a large lowercase lexicon drawn with Zipf
# frequencies, capitalised entity names of 1-3 tokens from per-type pools,
# a POS tag per word type, and a Brown-style cluster per word type.

FUNCTION_WORDS = [
    "the", "of", "and", "to", "a", "in", "for", "on", "that", "by", "with",
    "was", "at", "from", "as", "said", "is", "-", ",", "it",
]
CUE = {"PER": "mr", "LOC": "near", "ORG": "at", "MISC": "during"}
# Name tokens end in a suffix of their type, so suffix features identify
# the type of an unseen name and F1 depends little on the seed.
TYPE_SUFFIXES = {
    "PER": ("son", "ard", "ina"),
    "LOC": ("ville", "burg", "ford"),
    "ORG": ("corp", "tech", "dyne"),
    "MISC": ("ian", "ese", "fest"),
}
POS_TAGS = ("NN", "NNS", "VB", "VBD", "JJ", "RB", "PRP", "CD")
ONSETS = ("b", "c", "d", "f", "g", "k", "l", "m", "n", "p", "r", "s", "t",
          "v", "z", "br", "st", "tr", "pl", "gr", "sh", "th")
VOWELS = ("a", "e", "i", "o", "u", "ai", "ou", "ea")
CODAS = ("", "", "n", "r", "s", "l", "t", "nd", "rk", "st")


@dataclass(frozen=True)
class Lexicon:
    words: list[str]  # by Zipf rank
    word_probs: np.ndarray
    pos: dict[str, str]
    names: dict[str, list[tuple[str, ...]]]  # entity type -> pool of names
    name_probs: np.ndarray
    clusters: dict[str, str]


def _syllable_word(rng, syllables: int) -> str:
    return "".join(
        _pick(rng, ONSETS) + _pick(rng, VOWELS) + _pick(rng, CODAS)
        for _ in range(syllables)
    )


def _distinct_words(rng, count: int, taken: set, lo: int, hi: int) -> list[str]:
    out = []
    while len(out) < count:
        w = _syllable_word(rng, int(rng.integers(lo, hi + 1)))
        if w not in taken:
            taken.add(w)
            out.append(w)
    return out


def make_lexicon(seed: int, vocab: int, names_per_type: int) -> Lexicon:
    rng = np.random.default_rng([seed, 101])
    taken = set(FUNCTION_WORDS) | set(CUE.values())
    words = list(FUNCTION_WORDS) + _distinct_words(
        rng, vocab - len(FUNCTION_WORDS), taken, 1, 3
    )
    ranks = np.arange(1, len(words) + 1, dtype=np.float64)
    word_probs = ranks ** -0.85
    word_probs /= word_probs.sum()
    pos = {w: _pick(rng, POS_TAGS) for w in words}
    pos.update({w: "IN" for w in FUNCTION_WORDS[:16]})
    pos.update({"-": ":", ",": ",", "it": "PRP", "said": "VBD"})
    pos.update({w: "IN" for w in CUE.values()})
    stems = _distinct_words(rng, 4 * names_per_type, taken, 1, 2)
    pieces = []
    names = {}
    for k, etype in enumerate(("PER", "LOC", "ORG", "MISC")):
        own = [
            (stem + _pick(rng, TYPE_SUFFIXES[etype])).capitalize()
            for stem in stems[k * names_per_type : (k + 1) * names_per_type]
        ]
        pieces += own
        pool = []
        for j, head in enumerate(own):
            size = 1 + j % 3 if etype != "LOC" else 1 + j % 2
            tail = tuple(_pick(rng, own) for _ in range(size - 1))
            if etype == "ORG" and size == 3:
                tail = (_pick(rng, ("of", "and")), tail[1])
            pool.append((head,) + tail)
        names[etype] = pool
    name_ranks = np.arange(1, names_per_type + 1, dtype=np.float64)
    name_probs = name_ranks ** -0.8
    name_probs /= name_probs.sum()
    vocab_all = words + pieces + list(CUE.values()) + ["."]
    clusters = {w: format(int(rng.integers(256)), "08b") for w in vocab_all}
    return Lexicon(words, word_probs, pos, names, name_probs, clusters)


def zipf_corpus(
    lex: Lexicon,
    seed: int,
    split: str,
    lengths: list[int],
    entities: list[int],
) -> list[Sentence]:
    """One sentence per (length, entity count) pair, in a seeded order.

    Every sentence has exactly its length in tokens (entities included)
    and ends with a period; entity names are preceded by a type cue word
    half of the time, so context features carry signal.
    """
    rng = np.random.default_rng([seed, 200 + SPLIT_STREAM[split]])
    order = rng.permutation(len(lengths))
    out = []
    types = ("PER", "LOC", "ORG", "MISC")
    for idx in order:
        length, n_ent = lengths[idx], entities[idx]
        body = length - 1
        pieces: list[list[tuple[str, str, str]]] = []
        used = 0
        for _ in range(n_ent):
            etype = types[int(rng.integers(4))]
            pool = lex.names[etype]
            name = pool[int(rng.choice(len(pool), p=lex.name_probs))]
            # room for the name, its cue and one filler slot per mention
            if used + len(name) + 1 + len(pieces) > body:
                break
            mention = [(tok, "NNP", ("B-" if j == 0 else "I-") + etype)
                       for j, tok in enumerate(name)]
            if rng.random() < 0.5:
                mention.insert(0, (CUE[etype], "IN", "O"))
            pieces.append(mention)
            used += len(mention)
        fillers = body - used
        # distinct slots keep a word between mentions: adjacent same-type
        # names would have no right segmentation
        slots = sorted(int(x) for x in rng.choice(fillers + 1, size=len(pieces), replace=False))
        fill_ids = rng.choice(len(lex.words), size=fillers, p=lex.word_probs)
        sent: Sentence = []
        at = 0
        for slot, mention in zip(slots, pieces):
            for w in fill_ids[at:slot]:
                word = lex.words[int(w)]
                sent.append((word, lex.pos[word], "O"))
            at = slot
            sent.extend(mention)
        for w in fill_ids[at:]:
            word = lex.words[int(w)]
            sent.append((word, lex.pos[word], "O"))
        sent.append((".", ".", "O"))
        out.append(sent)
    return out


def spread(lo: int, hi: int, n: int) -> list[int]:
    """n integers evenly covering [lo, hi]: a fixed multiset per n."""
    return [lo + (i * (hi - lo + 1)) // n for i in range(n)]


# ---------------------------------------------------------------------------
# writers


def write_conll(path: Path, sentences: list[Sentence]) -> None:
    blocks = []
    for sent in sentences:
        blocks.append("\n".join(
            f"{tok}\t{pos}\t{tag}" if pos is not None else f"{tok}\t{tag}"
            for tok, pos, tag in sent
        ))
    path.write_text("\n\n".join(blocks) + "\n", encoding="utf-8")


def write_clusters(path: Path, lex: Lexicon) -> None:
    path.write_text(
        "".join(f"{c}\t{w}\n" for w, c in sorted(lex.clusters.items())),
        encoding="utf-8",
    )
