"""Discrete feature templates for the CRF tagger.

Template groups (each instantiated at token offsets -1 and 0 by default):
word unigrams/bigrams, character shape, capitalization, capital+word,
connect-word class, capital+connect, cluster grams from an external Brown
style cluster file, 4-level prefixes/suffixes, POS grams, and POS+word at
the current position. Boundary offsets fall back to sentence markers for
word grams only; the other templates need a real token.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..corpus import Sentence
from ..errors import ParseError

WORD_START = "<s>"
WORD_END = "</s>"


def word_shape(word: str) -> str:
    """Run-compressed character classes: A=upper, a=lower, d=digit, o=other.

    "Obama" -> "Aa", "A1" -> "Ad", "U.N." -> "AoAo".
    """
    out = []
    for ch in word:
        if ch.isdigit():
            c = "d"
        elif ch.isupper():
            c = "A"
        elif ch.islower():
            c = "a"
        else:
            c = "o"
        if not out or out[-1] != c:
            out.append(c)
    return "".join(out)


def capital_flag(word: str) -> str:
    return "1" if word[0].isupper() else "0"


def connect_class(word: str) -> str:
    lower = word.lower()
    if lower in ("of", "and", "for"):
        return lower
    if word == "-":
        return "-"
    return "other"


@dataclass(frozen=True)
class FeatureTemplateSet:
    word_grams: bool = True
    word_bigrams: bool = True  # the w|w+1 half of the word-gram group
    shape: bool = True
    capital: bool = True
    capital_word: bool = True
    connect: bool = True
    capital_connect: bool = True
    cluster_grams: bool = True
    prefix_suffix: bool = True
    pos_grams: bool = True
    pos_word: bool = True
    offsets: tuple[int, ...] = (-1, 0)
    # token -> cluster id; None disables cluster templates entirely
    clusters: dict[str, str] | None = field(default=None, hash=False)


def featurize(sentence: Sentence, templates: FeatureTemplateSet) -> list[list[str]]:
    """Expand templates into per-position feature strings.

    Deterministic: same sentence and templates give the same strings in
    the same order. POS templates skip tokens without a POS column. Each
    token's word attributes (shape, capital flag, connect class, cluster)
    are computed once, however many offsets reach it.
    """
    words = sentence.surfaces
    poss = [t.pos for t in sentence.tokens]
    t_count = len(words)

    def word_at(p):
        if p < 0:
            return WORD_START
        if p >= t_count:
            return WORD_END
        return words[p]

    shapes = [word_shape(w) for w in words] if templates.shape else None
    use_caps = templates.capital or templates.capital_word or templates.capital_connect
    caps = [capital_flag(w) for w in words] if use_caps else None
    use_conns = templates.connect or templates.capital_connect
    conns = [connect_class(w) for w in words] if use_conns else None
    if templates.cluster_grams and templates.clusters is not None:
        cls = [templates.clusters.get(w, "<unk>") for w in words]
    else:
        cls = None
    out = []
    for t in range(t_count):
        feats: list[str] = []
        for i in templates.offsets:
            p = t + i
            w = word_at(p)
            if templates.word_grams:
                feats.append(f"w[{i}]={w}")
                if templates.word_bigrams:
                    feats.append(f"ww[{i}]={w}|{word_at(p + 1)}")
            if not 0 <= p < t_count:
                continue
            if templates.shape:
                feats.append(f"sh[{i}]={shapes[p]}")
            if templates.capital:
                feats.append(f"ca[{i}]={caps[p]}")
            if templates.capital_word:
                feats.append(f"caw[{i}]={caps[p]}|{w}")
            if templates.connect:
                feats.append(f"co[{i}]={conns[p]}")
            if templates.capital_connect:
                feats.append(f"caco[{i}]={caps[p]}|{conns[p]}")
            if cls is not None:
                feats.append(f"cl[{i}]={cls[p]}")
                if p + 1 < t_count:
                    feats.append(f"clb[{i}]={cls[p]}|{cls[p + 1]}")
            if templates.prefix_suffix:
                for l in range(1, min(4, len(w)) + 1):
                    feats.append(f"pre{l}[{i}]={w[:l]}")
                    feats.append(f"suf{l}[{i}]={w[-l:]}")
            pos = poss[p]
            if pos is not None:
                if templates.pos_grams:
                    feats.append(f"pos[{i}]={pos}")
                    if p + 1 < t_count and poss[p + 1] is not None:
                        feats.append(f"posb[{i}]={pos}|{poss[p + 1]}")
                    if p - 1 >= 0 and p + 1 < t_count and poss[p - 1] is not None and poss[p + 1] is not None:
                        feats.append(f"post[{i}]={poss[p - 1]}|{pos}|{poss[p + 1]}")
                if templates.pos_word and i == 0:
                    feats.append(f"posw={pos}|{w}")
        out.append(feats)
    return out


def read_clusters(text: str) -> dict:
    """Parse a `cluster-id token` file into token -> cluster id; columns
    after the second are ignored, a line with one column is a ParseError."""
    clusters = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        cols = raw.split()
        if not cols:
            continue
        if len(cols) < 2:
            raise ParseError(f"expected `cluster-id token`, got {raw.strip()!r}", line=lineno)
        clusters[cols[1]] = cols[0]
    return clusters
