import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nerrank.corpus import (
    BioLabel,
    Dataset,
    EntitySpan,
    O_LABEL,
    Sentence,
    Token,
    extract_spans,
    format_conll,
    normalize_to_bio2,
    parse_conll,
    tag_accuracy,
)
from nerrank.errors import ParseError
from strategies import label_seqs, sentences


def labs(*texts):
    return [BioLabel.parse(t) for t in texts]


# ---------------------------------------------------------------------------
# independent segmenter oracle (conlleval chunk rules, written from scratch)

def conlleval_segments(labels):
    """Chunk boundaries per conlleval: B starts; I starts after O or a type
    change; a chunk ends at O, at B, or when the type changes."""
    segs = set()
    open_start = None
    open_type = None
    for i, lab in enumerate(labels):
        if open_type is not None and (
            lab.position == "O" or lab.position == "B" or lab.entity_type != open_type
        ):
            segs.add((open_start, i - 1, open_type))
            open_start = open_type = None
        if lab.position in ("B", "I") and open_type is None:
            open_start, open_type = i, lab.entity_type
    if open_type is not None:
        segs.add((open_start, len(labels) - 1, open_type))
    return segs


def all_sequences(max_len, types=("PER", "LOC")):
    alphabet = [O_LABEL]
    for t in types:
        alphabet.append(BioLabel("B", t))
        alphabet.append(BioLabel("I", t))
    for n in range(1, max_len + 1):
        yield from (list(seq) for seq in itertools.product(alphabet, repeat=n))


def random_valid_sequence(rng, max_len=12):
    n = int(rng.integers(1, max_len + 1))
    out = []
    prev = O_LABEL
    for _ in range(n):
        choices = [O_LABEL] + [BioLabel("B", t) for t in ("PER", "LOC", "ORG", "MISC")]
        if prev.position in ("B", "I"):
            choices.append(BioLabel("I", prev.entity_type))
        lab = choices[int(rng.integers(len(choices)))]
        out.append(lab)
        prev = lab
    return out


# ---------------------------------------------------------------------------
# labels and types

def test_bio_label_parse_and_str():
    assert str(BioLabel.parse("B-PER")) == "B-PER"
    assert str(BioLabel.parse("O")) == "O"
    assert BioLabel.parse("I-MISC") == BioLabel("I", "MISC")
    with pytest.raises(ValueError):
        BioLabel.parse("B-GPE")
    with pytest.raises(ValueError):
        BioLabel.parse("X-PER")
    with pytest.raises(ValueError):
        BioLabel("O", "PER")


def test_token_rejects_whitespace():
    with pytest.raises(ValueError):
        Token("two words")
    with pytest.raises(ValueError):
        Token("")


def test_entity_span_validation():
    with pytest.raises(ValueError):
        EntitySpan(3, 2, "PER")
    with pytest.raises(ValueError):
        EntitySpan(0, 0, "GPE")


def test_dataset_alignment_checks():
    sent = Sentence(0, (Token("a"),))
    with pytest.raises(ValueError):
        Dataset([sent], [])
    with pytest.raises(ValueError):
        Dataset([sent], [labs("O", "O")])
    with pytest.raises(ValueError):
        Dataset([sent, Sentence(0, (Token("b"),))], [labs("O"), labs("O")])


# ---------------------------------------------------------------------------
# parsing

def test_parse_conll_iob1_single_token():
    ds = parse_conll("John NNP I-PER\n. . O\n\n")
    assert len(ds) == 1
    assert ds.sentences[0].surfaces == ["John", "."]
    assert ds.sentences[0].tokens[0].pos == "NNP"
    assert ds.gold[0] == labs("B-PER", "O")


def test_parse_conll_docstart_skipped():
    ds = parse_conll("-DOCSTART- -X- O O\n\nU.N. NNP I-ORG\n\n")
    assert len(ds) == 1
    assert ds.sentences[0].surfaces == ["U.N."]
    assert ds.gold[0] == labs("B-ORG")


def test_parse_conll_empty():
    assert len(parse_conll("")) == 0
    assert len(parse_conll("\n\n\n")) == 0


def test_parse_conll_two_columns_no_pos():
    ds = parse_conll("Paris\tB-LOC\nis\tO\n")
    assert ds.sentences[0].tokens[0].pos is None
    assert ds.gold[0] == labs("B-LOC", "O")


def test_parse_conll_missing_final_blank_line():
    ds = parse_conll("a x O\nb y B-LOC")
    assert len(ds) == 1
    assert len(ds.sentences[0]) == 2


def test_parse_conll_errors_carry_line_numbers():
    with pytest.raises(ParseError, match="line 2"):
        parse_conll("ok x O\nbad\n")
    with pytest.raises(ParseError, match="line 1"):
        parse_conll("tok x B-GPE\n")


def test_parse_conll_skips_leading_metadata_lines():
    ds = parse_conll("# nerrank 0.1.0 config abc\nJohn NNP I-PER\n\n")
    assert len(ds) == 1
    # a literal "#" token mid-corpus is data, not metadata
    ds2 = parse_conll("a x O\n\n# x O\n\n")
    assert ds2.sentences[1].surfaces == ["#"]


def test_parse_conll_ids_are_load_order():
    ds = parse_conll("a x O\n\nb x O\n\nc x O\n\n")
    assert [s.id for s in ds.sentences] == [0, 1, 2]


def test_format_conll_roundtrip():
    text = "John\tB-PER\nsmiled\tO\n\nParis\tB-LOC\n"
    ds = parse_conll(text)
    assert format_conll(ds) == text
    assert parse_conll(format_conll(ds)).gold == ds.gold


@st.composite
def datasets(draw):
    sents = draw(st.lists(sentences(), min_size=1, max_size=4))
    sents = [Sentence(i, s.tokens) for i, s in enumerate(sents)]
    return Dataset(sents, [draw(label_seqs(len(s))) for s in sents])


@given(datasets())
def test_conll_round_trip_keeps_surfaces_and_bio2_labels(dataset):
    back = parse_conll(format_conll(dataset))
    assert [s.surfaces for s in back.sentences] == [s.surfaces for s in dataset.sentences]
    assert back.gold == [normalize_to_bio2(labels) for labels in dataset.gold]


# ---------------------------------------------------------------------------
# normalization

def test_normalize_iob1_runs():
    assert normalize_to_bio2(labs("I-PER", "I-PER")) == labs("B-PER", "I-PER")
    assert normalize_to_bio2(labs("B-LOC", "I-ORG")) == labs("B-LOC", "B-ORG")


def test_normalize_identity_on_valid_bio2():
    seq = labs("B-PER", "I-PER", "O", "B-LOC")
    assert normalize_to_bio2(seq) == seq


def test_normalize_matches_segmenter_exhaustively():
    """Every sequence of length <= 4 over 2 types: normalization must keep
    conlleval segments intact, produce valid BIO2, and be idempotent."""
    for seq in all_sequences(4):
        norm = normalize_to_bio2(seq)
        assert conlleval_segments(norm) == conlleval_segments(seq)
        assert normalize_to_bio2(norm) == norm
        spans = extract_spans(norm)  # raises if not BIO2-valid
        assert {(s.start, s.end, s.entity_type) for s in spans} == conlleval_segments(seq)


# ---------------------------------------------------------------------------
# spans

def test_extract_spans_two_entity_sentence():
    spans = extract_spans(labs("B-PER", "I-PER", "O", "O", "O", "B-LOC", "O"))
    assert spans == {EntitySpan(0, 1, "PER"), EntitySpan(5, 5, "LOC")}


def test_extract_spans_all_o():
    assert extract_spans([O_LABEL] * 4) == set()


def test_extract_spans_adjacent_b():
    assert extract_spans(labs("B-PER", "B-PER")) == {
        EntitySpan(0, 0, "PER"),
        EntitySpan(1, 1, "PER"),
    }


def test_extract_spans_rejects_invalid_bio2():
    with pytest.raises(ValueError):
        extract_spans(labs("O", "I-PER"))
    with pytest.raises(ValueError):
        extract_spans(labs("B-LOC", "I-ORG"))


# ---------------------------------------------------------------------------
# tag accuracy

def test_tag_accuracy_identity():
    seq = labs("B-PER", "I-PER", "O")
    assert tag_accuracy(seq, seq) == 1.0
    assert tag_accuracy([O_LABEL] * 5, [O_LABEL] * 5) == 1.0


def test_tag_accuracy_partial():
    gold = labs("B-PER", "I-PER", "O", "O", "O", "B-LOC", "O")
    cand = labs("B-LOC", "I-LOC", "O", "O", "O", "O", "O")
    assert tag_accuracy(gold, cand) == pytest.approx(4 / 7)


def test_tag_accuracy_length_mismatch():
    with pytest.raises(ValueError):
        tag_accuracy(labs("O"), labs("O", "O"))


def test_tag_accuracy_bounds_random():
    import numpy as np

    rng = np.random.default_rng(11)
    for _ in range(200):
        a = random_valid_sequence(rng, max_len=8)
        b = random_valid_sequence(rng, max_len=8)
        if len(a) != len(b):
            continue
        acc = tag_accuracy(a, b)
        assert 0.0 <= acc <= 1.0
        assert acc == tag_accuracy(b, a)
