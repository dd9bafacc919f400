import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nerrank.collapse import (
    CollapsedItem,
    CollapsedSequence,
    collapse,
    collapsed_to_labels,
    collapsed_token_strings,
)
from nerrank.corpus import BioLabel, O_LABEL, Sentence, Token, extract_spans, normalize_to_bio2
from strategies import label_seqs, sentences


def sent(*words, sid=0):
    return Sentence(sid, tuple(Token(w) for w in words))


def labs(*texts):
    return [BioLabel.parse(t) for t in texts]


BARACK = sent("Barack", "Obama", "was", "born", "in", "hawaii", ".")


def test_collapse_person_location():
    seq = collapse(BARACK, labs("B-PER", "I-PER", "O", "O", "O", "B-LOC", "O"))
    assert collapsed_token_strings(seq) == ["PER", "was", "born", "in", "LOC", "."]
    assert " ".join(collapsed_token_strings(seq)) == "PER was born in LOC ."


def test_collapse_alternate_candidate():
    seq = collapse(BARACK, labs("B-LOC", "I-LOC", "O", "O", "O", "O", "O"))
    assert collapsed_token_strings(seq) == ["LOC", "was", "born", "in", "hawaii", "."]


def test_collapse_all_o_is_identity():
    seq = collapse(BARACK, [O_LABEL] * 7)
    assert collapsed_token_strings(seq) == list(BARACK.surfaces)


def test_collapse_adjacent_single_token_entities():
    seq = collapse(sent("a", "b"), labs("B-PER", "B-PER"))
    assert collapsed_token_strings(seq) == ["PER", "PER"]


def test_collapse_normalizes_invalid_candidates():
    # bare I-PER runs appear in k-best output; they collapse like B-PER runs
    seq = collapse(sent("a", "b", "c"), labs("I-PER", "I-PER", "O"))
    assert collapsed_token_strings(seq) == ["PER", "c"]
    seq2 = collapse(sent("a", "b"), labs("B-LOC", "I-ORG"))
    assert collapsed_token_strings(seq2) == ["LOC", "ORG"]


def test_collapse_rejects_misaligned_labels():
    with pytest.raises(ValueError):
        collapse(sent("a", "b"), labs("O"))


def test_collapse_type_token_collision_logged(caplog):
    import logging

    with caplog.at_level(logging.WARNING, logger="nerrank.collapse"):
        seq = collapse(sent("PER", "ran"), labs("O", "O"))
    assert collapsed_token_strings(seq) == ["PER", "ran"]
    assert any("collides" in r.message for r in caplog.records)


def test_collapsed_item_invariants():
    with pytest.raises(ValueError):
        CollapsedItem()
    with pytest.raises(ValueError):
        CollapsedItem(surface="x", entity_type="PER")
    with pytest.raises(ValueError):
        CollapsedItem(entity_type="GPE")
    with pytest.raises(ValueError):
        CollapsedSequence((), ())
    word = CollapsedItem(surface="x")
    with pytest.raises(ValueError, match="misaligned"):
        CollapsedSequence((word,), ())
    with pytest.raises(ValueError, match="one token"):
        CollapsedSequence((word,), ((0, 1),))
    with pytest.raises(ValueError, match="tile"):
        CollapsedSequence((word, word), ((0, 0), (2, 2)))


# ---------------------------------------------------------------------------
# properties

def all_valid_sequences(length, types=("PER", "LOC")):
    alphabet = [O_LABEL]
    for t in types:
        alphabet.append(BioLabel("B", t))
        alphabet.append(BioLabel("I", t))
    for raw in itertools.product(alphabet, repeat=length):
        seq = list(raw)
        if normalize_to_bio2(seq) == seq:  # keep only valid BIO2
            yield seq


def test_collapse_length_law():
    for length in (1, 2, 3, 4):
        s = sent(*[f"w{i}" for i in range(length)])
        for seq in all_valid_sequences(length):
            spans = extract_spans(seq)
            entity_tokens = sum(sp.end - sp.start + 1 for sp in spans)
            collapsed = collapse(s, seq)
            assert len(collapsed) == length - entity_tokens + len(spans)
            assert 1 <= len(collapsed) <= length


def test_collapse_injective_over_valid_sequences():
    """Distinct valid label sequences give distinct collapsed sequences,
    exhaustively for short sentences with 2 types. The source spans carry
    the distinction where token strings alone collide (B,B,I vs B,I,B both
    print as "PER PER")."""
    for length in (1, 2, 3, 4):
        s = sent(*[f"w{i}" for i in range(length)])
        seen = {}
        for seq in all_valid_sequences(length):
            c = collapse(s, seq)
            key = (c.items, c.spans)
            assert key not in seen, (
                f"collapse collision: {[str(l) for l in seen[key]]} vs {[str(l) for l in seq]}"
            )
            seen[key] = list(seq)


def test_collapse_roundtrips_to_labels():
    for length in (1, 2, 3, 4):
        s = sent(*[f"w{i}" for i in range(length)])
        for seq in all_valid_sequences(length):
            assert collapsed_to_labels(collapse(s, seq)) == seq


@st.composite
def labeled_sentences(draw):
    s = draw(sentences())
    return s, draw(label_seqs(len(s)))


@given(labeled_sentences())
def test_collapse_inverts_to_the_normalized_labels(labeled):
    # any labels, invalid BIO2 included: the round trip is their repair
    s, labels = labeled
    assert collapsed_to_labels(collapse(s, labels)) == normalize_to_bio2(labels)


def test_token_strings_alone_are_not_injective():
    # the documented collision the span alignment exists to resolve
    s = sent("a", "b", "c")
    c1 = collapse(s, labs("B-PER", "B-PER", "I-PER"))
    c2 = collapse(s, labs("B-PER", "I-PER", "B-PER"))
    assert collapsed_token_strings(c1) == collapsed_token_strings(c2) == ["PER", "PER"]
    assert (c1.items, c1.spans) != (c2.items, c2.spans)


def test_collapse_o_words_keep_exact_surface():
    s = sent("Mixed-Case", "U.N.", "x")
    seq = collapse(s, labs("O", "O", "B-PER"))
    assert collapsed_token_strings(seq)[:2] == ["Mixed-Case", "U.N."]
