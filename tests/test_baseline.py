import dataclasses
import itertools
import logging
import re
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nerrank.baseline import crf as crf_module
from nerrank.baseline.crf import (
    ALL_TAGS,
    CrfModel,
    SentenceIds,
    crf_train,
    intern_features,
    kbest_decode,
)
from nerrank.baseline.features import FeatureTemplateSet, featurize, read_clusters, word_shape
from nerrank.baseline.nbest import (
    CandidateSet,
    NBestCorpus,
    build_nbest_corpus,
    decode_corpus,
    format_nbest,
    jackknife,
    parse_nbest,
)
from nerrank.collapse import collapse, collapsed_token_strings
from nerrank.corpus import (
    BioLabel,
    Dataset,
    Sentence,
    Token,
    extract_spans,
    normalize_to_bio2,
    parse_conll,
    tag_accuracy,
)
from nerrank.config import RunConfig
from nerrank.errors import NerrankError, ParseError
from nerrank.numerics import AdamState, RowGrad, Tensor, optim
from strategies import label_seqs, sentences
from toycorpus import simple_corpus

# crf_train's settings at their config defaults; tests override what they pin
CRF = RunConfig().crf_options()

WORD_ONLY = FeatureTemplateSet(
    word_bigrams=False,
    shape=False,
    capital=False,
    capital_word=False,
    connect=False,
    capital_connect=False,
    cluster_grams=False,
    prefix_suffix=False,
    pos_grams=False,
    pos_word=False,
    offsets=(0,),
)


def sent(*words, sid=0, pos=None):
    toks = tuple(Token(w, pos[i] if pos else None) for i, w in enumerate(words))
    return Sentence(sid, toks)


def toy_model(words=("a", "b", "c", "d"), tags=("B-PER", "I-PER", "O"), seed=0):
    """Random-weight model over word-unigram features of `words`."""
    vocab = tuple(f"w[0]={w}" for w in sorted(words))
    rng = np.random.default_rng(seed)
    f, k = len(vocab), len(tags)
    return CrfModel(
        tags=tags,
        feature_vocab=vocab,
        templates=WORD_ONLY,
        emit=rng.normal(size=(f, k)),
        trans=rng.normal(size=(k, k)),
        begin=rng.normal(size=k),
        end=rng.normal(size=k),
    )


def zero_model(tags=ALL_TAGS):
    return CrfModel(
        tags=tags,
        feature_vocab=(),
        templates=WORD_ONLY,
        emit=np.zeros((0, len(tags))),
        trans=np.zeros((len(tags), len(tags))),
        begin=np.zeros(len(tags)),
        end=np.zeros(len(tags)),
    )


def sentence_ids(rows) -> SentenceIds:
    """One sentence's ids, given as one list of ids per position, in the
    form the model takes."""
    return SentenceIds(
        np.array([i for row in rows for i in row], dtype=np.int32),
        np.array([len(row) for row in rows], dtype=np.int32),
    )


def positions(ids: SentenceIds) -> list[np.ndarray]:
    """Each position's ids, in order."""
    return np.split(ids.ids, np.cumsum(ids.counts)[:-1])


def string_ids(model, sentence) -> SentenceIds:
    """The reference for `CrfModel.interned_ids`: the model's ids of each
    position's `featurize` strings, looked up one string at a time, in
    order. Strings the model never saw are dropped."""
    get = {name: i for i, name in enumerate(model.feature_vocab)}.get
    return sentence_ids(
        [[i for i in map(get, position) if i is not None] for position in featurize(sentence, model.templates)]
    )


def sentence_emissions(model, ids) -> np.ndarray:
    """(T, K) emissions of one sentence's ids, through the batched gather
    and scatter that training and decoding use."""
    return model._emissions(crf_module._pack([ids]))[0]


def score_tag_ids(model, emissions, tag_ids) -> float:
    """The enumeration reference's path score, summed in the pinned order
    begin[y_0] + e_0, then (s + trans) + e per step, then + end: the order
    `batch_nll` and the k-best beam keep, so their scores equal it to the
    bit."""
    begin = model.begin.tolist()
    end = model.end.tolist()
    trans = model.trans.tolist()
    e = emissions.tolist()
    s = begin[tag_ids[0]] + e[0][tag_ids[0]]
    for t in range(1, len(tag_ids)):
        s = (s + trans[tag_ids[t - 1]][tag_ids[t]]) + e[t][tag_ids[t]]
    return s + end[tag_ids[-1]]


def sequence_prob(model, sentence, labels) -> float:
    """Exact probability exp(score - logZ) of one label sequence."""
    if len(labels) != len(sentence):
        raise ValueError(f"{len(labels)} labels for {len(sentence)} tokens")
    e = model.emission_scores(sentence)
    ids = [model.tag_id(l) for l in labels]
    return min(1.0, float(np.exp(score_tag_ids(model, e, ids) - model.log_partition(e))))


def decode_one(model, sentence, k, gold=None):
    """`kbest_decode` on a batch of one sentence, as a candidate set."""
    return CandidateSet(sentence.id, gold, kbest_decode(model, [string_ids(model, sentence)], k)[0])


def enumerate_ranked(model, sentence):
    """Brute-force oracle: score every tag sequence, rank by (-score, seq)."""
    e = model.emission_scores(sentence)
    k = len(model.tags)
    ranked = [
        (score_tag_ids(model, e, list(seq)), seq)
        for seq in itertools.product(range(k), repeat=len(sentence))
    ]
    ranked.sort(key=lambda item: (-item[0], item[1]))
    return ranked


# ---------------------------------------------------------------------------
# features

def test_word_shape_cases():
    assert word_shape("Obama") == "Aa"
    assert word_shape("A1") == "Ad"
    assert word_shape("U.N.") == "AoAo"
    assert word_shape("1990s") == "da"
    assert word_shape("----") == "o"


def test_featurize_obama_example():
    feats = featurize(sent("Obama", "won"), FeatureTemplateSet())[0]
    for expected in ("w[0]=Obama", "ca[0]=1", "pre1[0]=O", "suf4[0]=bama", "sh[0]=Aa"):
        assert expected in feats
    assert "caw[0]=1|Obama" in feats


def test_featurize_connect_classes():
    feats = featurize(sent("of"), FeatureTemplateSet())[0]
    assert "co[0]=of" in feats
    assert "caco[0]=0|of" in feats
    assert "co[0]=-" in featurize(sent("-"), FeatureTemplateSet())[0]
    assert "co[0]=other" in featurize(sent("word"), FeatureTemplateSet())[0]


def test_featurize_offsets_and_boundaries():
    feats = featurize(sent("John", "ran"), FeatureTemplateSet())
    # position 1 sees the previous word at offset -1
    assert "w[-1]=John" in feats[1]
    assert "sh[-1]=Aa" in feats[1]
    # position 0's offset -1 is out of range: word grams only, with markers
    assert "w[-1]=<s>" in feats[0]
    assert "ww[-1]=<s>|John" in feats[0]
    assert not any(f.startswith("sh[-1]") for f in feats[0])
    assert "ww[0]=ran|</s>" in feats[1]


def test_featurize_pos_templates_skip_without_pos():
    no_pos = featurize(sent("He", "ran"), FeatureTemplateSet())
    assert not any(f.startswith(("pos", "posb", "post")) for row in no_pos for f in row)
    with_pos = featurize(sent("He", "ran", pos=["PRP", "VBD"]), FeatureTemplateSet())
    assert "pos[0]=PRP" in with_pos[0]
    assert "posb[0]=PRP|VBD" in with_pos[0]
    assert "posw=VBD|ran" in with_pos[1]


def test_featurize_pos_trigram():
    feats = featurize(sent("a", "b", "c", pos=["X", "Y", "Z"]), FeatureTemplateSet())
    assert "post[0]=X|Y|Z" in feats[1]


def test_featurize_cluster_templates():
    clusters = {"John": "0110", "ran": "10"}
    t = FeatureTemplateSet(clusters=clusters)
    feats = featurize(sent("John", "ran"), t)
    assert "cl[0]=0110" in feats[0]
    assert "clb[0]=0110|10" in feats[0]
    assert "cl[0]=10" in feats[1]
    # unknown token falls back to the unknown cluster
    assert "cl[0]=<unk>" in featurize(sent("Zzz"), t)[0]
    # no cluster table at all: no cluster features
    assert not any("cl[" in f for row in featurize(sent("John"), FeatureTemplateSet()) for f in row)


def test_featurize_word_bigram_toggle():
    feats = featurize(sent("a", "b"), WORD_ONLY)
    assert feats[0] == ["w[0]=a"]
    assert feats[1] == ["w[0]=b"]


def test_featurize_order_is_pinned():
    # every template on, offsets (-1, 0): the strings and their order as
    # featurize gave them when it formatted each (position, offset) anew
    s = Sentence(0, (Token("Li", "NNP"), Token("of", "IN"), Token("U.N", "NNP"), Token("-")))
    feats = featurize(s, FeatureTemplateSet(clusters={"Li": "0110", "of": "10"}))
    assert feats == [
        ["w[-1]=<s>", "ww[-1]=<s>|Li", "w[0]=Li", "ww[0]=Li|of", "sh[0]=Aa", "ca[0]=1",
         "caw[0]=1|Li", "co[0]=other", "caco[0]=1|other", "cl[0]=0110", "clb[0]=0110|10",
         "pre1[0]=L", "suf1[0]=i", "pre2[0]=Li", "suf2[0]=Li", "pos[0]=NNP",
         "posb[0]=NNP|IN", "posw=NNP|Li"],
        ["w[-1]=Li", "ww[-1]=Li|of", "sh[-1]=Aa", "ca[-1]=1", "caw[-1]=1|Li", "co[-1]=other",
         "caco[-1]=1|other", "cl[-1]=0110", "clb[-1]=0110|10", "pre1[-1]=L", "suf1[-1]=i",
         "pre2[-1]=Li", "suf2[-1]=Li", "pos[-1]=NNP", "posb[-1]=NNP|IN", "w[0]=of",
         "ww[0]=of|U.N", "sh[0]=a", "ca[0]=0", "caw[0]=0|of", "co[0]=of", "caco[0]=0|of",
         "cl[0]=10", "clb[0]=10|<unk>", "pre1[0]=o", "suf1[0]=f", "pre2[0]=of", "suf2[0]=of",
         "pos[0]=IN", "posb[0]=IN|NNP", "post[0]=NNP|IN|NNP", "posw=IN|of"],
        ["w[-1]=of", "ww[-1]=of|U.N", "sh[-1]=a", "ca[-1]=0", "caw[-1]=0|of", "co[-1]=of",
         "caco[-1]=0|of", "cl[-1]=10", "clb[-1]=10|<unk>", "pre1[-1]=o", "suf1[-1]=f",
         "pre2[-1]=of", "suf2[-1]=of", "pos[-1]=IN", "posb[-1]=IN|NNP", "post[-1]=NNP|IN|NNP",
         "w[0]=U.N", "ww[0]=U.N|-", "sh[0]=AoA", "ca[0]=1", "caw[0]=1|U.N", "co[0]=other",
         "caco[0]=1|other", "cl[0]=<unk>", "clb[0]=<unk>|<unk>", "pre1[0]=U", "suf1[0]=N",
         "pre2[0]=U.", "suf2[0]=.N", "pre3[0]=U.N", "suf3[0]=U.N", "pos[0]=NNP",
         "posw=NNP|U.N"],
        ["w[-1]=U.N", "ww[-1]=U.N|-", "sh[-1]=AoA", "ca[-1]=1", "caw[-1]=1|U.N",
         "co[-1]=other", "caco[-1]=1|other", "cl[-1]=<unk>", "clb[-1]=<unk>|<unk>",
         "pre1[-1]=U", "suf1[-1]=N", "pre2[-1]=U.", "suf2[-1]=.N", "pre3[-1]=U.N",
         "suf3[-1]=U.N", "pos[-1]=NNP", "w[0]=-", "ww[0]=-|</s>", "sh[0]=o", "ca[0]=0",
         "caw[0]=0|-", "co[0]=-", "caco[0]=0|-", "cl[0]=<unk>", "pre1[0]=-", "suf1[0]=-"],
    ]


@pytest.mark.parametrize(
    "switch, prefixes",
    [
        ("shape", ("sh[",)),
        ("capital", ("ca[",)),
        ("capital_word", ("caw[",)),
        ("connect", ("co[",)),
        ("capital_connect", ("caco[",)),
        ("cluster_grams", ("cl[", "clb[")),
    ],
)
def test_featurize_one_switch_gives_its_part_of_the_full_output(switch, prefixes):
    # featurize computes a word attribute only when a switch that reads it
    # is on; each switch alone must still give its strings of the full set
    s = Sentence(0, (Token("Li", "NNP"), Token("of", "IN"), Token("U.N", "NNP"), Token("-")))
    clusters = {"Li": "0110", "of": "10"}
    full = featurize(s, FeatureTemplateSet(clusters=clusters))
    off = {f.name: False for f in dataclasses.fields(FeatureTemplateSet) if f.type == "bool"}
    alone = featurize(s, FeatureTemplateSet(**{**off, switch: True}, clusters=clusters))
    assert alone == [[f for f in row if f.startswith(prefixes)] for row in full]
    assert any(alone)


def test_featurize_deterministic():
    s = sent("One", "two", "of", "Three")
    t = FeatureTemplateSet()
    assert featurize(s, t) == featurize(s, t)


def test_read_clusters():
    table = read_clusters("0110 John\n10 ran\n\n111 of extra-ignored\n")
    assert table == {"John": "0110", "ran": "10", "of": "111"}
    with pytest.raises(ParseError, match="line 3"):
        read_clusters("0110 John\n  \n10\n")


# ---------------------------------------------------------------------------
# probabilities

def test_uniform_model_probabilities():
    model = zero_model()
    s = sent("x", "y")
    labels = [BioLabel.parse("B-PER"), BioLabel.parse("O")]
    assert sequence_prob(model, s, labels) == pytest.approx(1 / 81, rel=1e-12)


def test_probabilities_sum_to_one():
    model = toy_model(tags=("B-PER", "I-PER", "O"), seed=3)
    s = sent("a", "b", "c", "d")
    total = 0.0
    for seq in itertools.product(("B-PER", "I-PER", "O"), repeat=4):
        labels = [BioLabel.parse(t) for t in seq]
        total += sequence_prob(model, s, labels)
    assert abs(total - 1.0) < 1e-10


def test_viterbi_is_argmax():
    for seed in range(4):
        model = toy_model(seed=seed)
        s = sent("a", "c", "b")
        best_score, best_seq = enumerate_ranked(model, s)[0]
        vit = decode_one(model, s, 1).candidates[0][0]
        assert [model.tag_id(l) for l in vit] == list(best_seq)
        any_prob = sequence_prob(model, s, [BioLabel.parse("O")] * 3)
        assert sequence_prob(model, s, vit) >= any_prob


def test_sequence_prob_validates_length():
    with pytest.raises(ValueError):
        sequence_prob(toy_model(), sent("a"), [BioLabel.parse("O")] * 2)


def test_sequence_prob_rejects_foreign_tag():
    with pytest.raises(ValueError, match="tag set"):
        sequence_prob(toy_model(), sent("a"), [BioLabel.parse("B-MISC")])


# ---------------------------------------------------------------------------
# k-best decoding

def test_kbest_matches_enumeration_exactly():
    for seed in range(5):
        model = toy_model(seed=seed)
        s = sent("b", "a", "d")
        ranked = enumerate_ranked(model, s)[:10]
        cs = decode_one(model, s, 10)
        got = [tuple(model.tag_id(l) for l in labels) for labels, _ in cs.candidates]
        assert got == [seq for _, seq in ranked]
        log_z = model.log_partition(model.emission_scores(s))
        for (labels, prob), (score, _) in zip(cs.candidates, ranked):
            assert prob == min(1.0, float(np.exp(score - log_z)))


def test_kbest_tie_breaking_is_lexicographic():
    # zero weights: every sequence ties, so ranking is pure tag-id order
    model = zero_model(tags=("B-PER", "I-PER", "O"))
    s = sent("x", "y")
    cs = decode_one(model, s, 5)
    got = [tuple(model.tag_id(l) for l in labels) for labels, _ in cs.candidates]
    assert got == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1)]


@pytest.mark.xfail(
    strict=True,
    reason="rounding turns two path scores into a tie that the beam breaks the other way "
    "(ROADMAP open item 4, exact k-best under rounding)",
)
def test_kbest_keeps_a_tie_that_rounding_creates():
    # the lattice of _kbest_chunk's docstring: (0, 0) scores 1 + 1 and
    # (1, 0) scores (1 + 2**-52) + 1, which rounds to the same 2.0; the
    # beam of one kept (1, 0) at step 1, which beat (0, 0) there
    model = CrfModel(
        tags=("B-PER", "O"),
        feature_vocab=(),
        templates=WORD_ONLY,
        emit=np.zeros((0, 2)),
        trans=np.zeros((2, 2)),
        begin=np.array([1.0, 1.0 + 2**-52]),
        end=np.array([1.0, -100.0]),
    )
    s = sent("x", "y")
    assert enumerate_ranked(model, s)[0] == (2.0, (0, 0))
    got = decode_one(model, s, 1).candidates[0][0]
    assert tuple(model.tag_id(l) for l in got) == (0, 0)


def test_kbest_k1_equals_viterbi():
    # the Viterbi path, a beam of one, heads every wider beam's list too
    model = toy_model(seed=9)
    s = sent("d", "c", "a", "b")
    assert decode_one(model, s, 1).candidates[0][0] == decode_one(model, s, 20).candidates[0][0]


def test_kbest_exhausts_small_lattices():
    model = toy_model(seed=2)
    s = sent("a", "b")
    cs = decode_one(model, s, 50)
    assert len(cs) == 9
    probs = [p for _, p in cs.candidates]
    assert sum(probs) == pytest.approx(1.0, abs=1e-10)
    assert all(probs[i] >= probs[i + 1] for i in range(len(probs) - 1))


def test_kbest_rejects_bad_k():
    with pytest.raises(ValueError):
        decode_one(toy_model(), sent("a"), 0)


def test_kbest_carries_gold():
    gold = [BioLabel.parse("O")]
    cs = decode_one(toy_model(), sent("a"), 3, gold=gold)
    assert cs.gold == gold


# small integers make ties common, so the lexicographic tie-break is exercised
WEIGHTS = st.one_of(
    st.integers(-2, 2).map(float),
    st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def lattices(draw, max_tags=4):
    """A random-weight model with 2 to `max_tags` tags over `toy_model`'s
    word features and a 1-4 token sentence of those words."""
    k = draw(st.integers(2, max_tags))
    words = ("a", "b", "c", "d")

    def vec(n):
        return np.array(draw(st.lists(WEIGHTS, min_size=n, max_size=n)))

    model = CrfModel(
        tags=ALL_TAGS[:k],
        feature_vocab=tuple(f"w[0]={w}" for w in words),
        templates=WORD_ONLY,
        emit=vec(len(words) * k).reshape(len(words), k),
        trans=vec(k * k).reshape(k, k),
        begin=vec(k),
        end=vec(k),
    )
    tokens = draw(st.lists(st.sampled_from(words), min_size=1, max_size=4))
    return model, sent(*tokens)


@given(lattices(), st.integers(1, 12))
def test_kbest_equals_enumeration_on_random_lattices(lattice, k):
    model, s = lattice
    ranked = enumerate_ranked(model, s)
    log_z = model.log_partition(model.emission_scores(s))
    probs = [min(1.0, float(np.exp(score - log_z))) for score, _ in ranked]
    assert abs(sum(probs) - 1.0) < 1e-10
    cs = decode_one(model, s, k)
    got = [
        (tuple(model.tag_id(l) for l in labels), prob) for labels, prob in cs.candidates
    ]
    assert got == [(seq, prob) for (_, seq), prob in zip(ranked[:k], probs)]


@st.composite
def ragged_lattices(draw):
    """A `lattices` model with at most 3 tags and 2-6 sentences of 1-6
    tokens of its words (at most 729 paths each), to decode as one batch."""
    model, _ = draw(lattices(max_tags=3))
    words = st.lists(st.sampled_from(("a", "b", "c", "d")), min_size=1, max_size=6)
    sentences = [sent(*tokens, sid=i) for i, tokens in enumerate(draw(st.lists(words, min_size=2, max_size=6)))]
    return model, sentences


@given(ragged_lattices(), st.integers(1, 40))
def test_kbest_batch_equals_each_sentence_alone(lattice, k):
    # k falls below the path count of the long sentences and above that of
    # the short ones in the same batch
    model, sentences = lattice
    ids = [string_ids(model, s) for s in sentences]
    batch = kbest_decode(model, ids, k)
    for s, candidates in zip(sentences, batch):
        alone = decode_one(model, s, k).candidates
        assert candidates == alone
        ranked = enumerate_ranked(model, s)[:k]
        log_z = model.log_partition(model.emission_scores(s))
        assert [(tuple(model.tag_id(l) for l in labels), prob) for labels, prob in candidates] == [
            (seq, max(min(1.0, float(np.exp(score - log_z))), 1e-300)) for score, seq in ranked
        ]


def test_decode_corpus_across_chunks_equals_single_decodes():
    # 70 sentences of 1-12 tokens: batches of 32, 32 and 6 at k = 10, and
    # of 25, 25 and 20 at k = 25 (BEAM_SLOTS // 25 sentences each)
    rng = np.random.default_rng(12)
    model = toy_model(tags=ALL_TAGS, seed=5)
    sentences = [
        sent(*rng.choice(["a", "b", "c", "d", "e"], size=int(rng.integers(1, 13))), sid=i)
        for i in range(70)
    ]
    gold = [[BioLabel.parse("O")] * len(s) for s in sentences]
    dataset = Dataset(sentences, gold)
    for k in (10, 25):
        single = NBestCorpus(sentences, [decode_one(model, s, k, g) for s, g in dataset])
        assert format_nbest(decode_corpus(model, dataset, k)) == format_nbest(single)


def test_decode_corpus_drops_the_strings_its_model_never_saw():
    # decode_corpus interns the dataset itself; every position must keep the
    # ids the string lookup keeps, in its order. The model knows the words
    # a-d at offsets -1, 0 and 1; "yy" sits between two more unseen words,
    # so its position loses all three of its ids
    templates = dataclasses.replace(WORD_ONLY, offsets=(-1, 0, 1))
    seen = [sent("a", "b", "c"), sent("d", "a")]
    names = sorted({f for s in seen for position in featurize(s, templates) for f in position})
    rng = np.random.default_rng(4)
    f, k = len(names), len(ALL_TAGS)
    model = CrfModel(
        tags=ALL_TAGS,
        feature_vocab=tuple(names),
        templates=templates,
        emit=rng.normal(size=(f, k)),
        trans=rng.normal(size=(k, k)),
        begin=rng.normal(size=k),
        end=rng.normal(size=k),
    )
    sentences = [
        sent("a", "zz", "b", sid=0),
        sent("zz", "yy", "xx", "a", sid=1),
        sent("q", sid=2),
        sent("c", "a", "d", sid=3),
    ]
    assert len(featurize(sentences[1], templates)[1]) == 3
    assert positions(string_ids(model, sentences[1]))[1].size == 0
    dataset = Dataset(sentences, [[BioLabel.parse("O")] * len(s) for s in sentences])
    got = decode_corpus(model, dataset, 5)
    expected = NBestCorpus(sentences, [decode_one(model, s, 5, g) for s, g in dataset])
    assert got.sets == expected.sets
    assert format_nbest(got) == format_nbest(expected)
    for s in sentences:
        assert_same_bits(model.emission_scores(s), reference_emissions(model, string_ids(model, s)))


def reference_kbest(model, sentence, k):
    """The tuple beam: per state, up to k (score, tag-id tuple) survivors,
    each state's grown items sorted by (-score, tuple). Returns the top k
    (score, tuple) pairs of the whole lattice."""
    e = model.emission_scores(sentence).tolist()
    begin = model.begin.tolist()
    end = model.end.tolist()
    trans = model.trans.tolist()
    n_tags = len(model.tags)
    beams = [[(begin[y] + e[0][y], (y,))] for y in range(n_tags)]
    for t in range(1, len(sentence)):
        new_beams = []
        for y in range(n_tags):
            grown = [
                ((s + trans[prev][y]) + e[t][y], seq + (y,))
                for prev in range(n_tags)
                for s, seq in beams[prev]
            ]
            grown.sort(key=lambda item: (-item[0], item[1]))
            new_beams.append(grown[:k])
        beams = new_beams
    final = [(s + end[y], seq) for y in range(n_tags) for s, seq in beams[y]]
    final.sort(key=lambda item: (-item[0], item[1]))
    return final[:k]


def assert_kbest_equals_reference(model, s, k):
    """Same tag sequences in the same order, and probabilities equal to the
    bit to those of the reference beam's scores."""
    log_z = model.log_partition(model.emission_scores(s))
    expected = [
        (seq, max(min(1.0, float(np.exp(score - log_z))), 1e-300))
        for score, seq in reference_kbest(model, s, k)
    ]
    cs = decode_one(model, s, k)
    got = [(tuple(model.tag_id(l) for l in labels), prob) for labels, prob in cs.candidates]
    assert got == expected


# mostly small integers, so most paths tie with many others
TIE_WEIGHTS = st.one_of(
    st.integers(-1, 1).map(float),
    st.integers(-1, 1).map(float),
    st.integers(-1, 1).map(float),
    st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def tag_lattices(draw):
    """A model over all nine tags and a 1-12 token sentence of its words.
    In about half of them one end state outweighs the rest, so the top k
    are one state's beam and the ties at its cut-off reach the output."""
    words = ("a", "b", "c", "d")
    k = len(ALL_TAGS)

    def vec(n):
        return np.array(draw(st.lists(TIE_WEIGHTS, min_size=n, max_size=n)))

    end = vec(k)
    if draw(st.booleans()):
        end[draw(st.integers(0, k - 1))] += 100.0
    model = CrfModel(
        tags=ALL_TAGS,
        feature_vocab=tuple(f"w[0]={w}" for w in words),
        templates=WORD_ONLY,
        emit=vec(len(words) * k).reshape(len(words), k),
        trans=vec(k * k).reshape(k, k),
        begin=vec(k),
        end=end,
    )
    tokens = draw(st.lists(st.sampled_from(words), min_size=1, max_size=12))
    return model, sent(*tokens)


@given(tag_lattices(), st.integers(1, 30))
def test_kbest_equals_the_tuple_beam(lattice, k):
    model, s = lattice
    assert_kbest_equals_reference(model, s, k)


def test_kbest_single_token_equals_the_tuple_beam():
    for seed in range(3):
        model = toy_model(tags=ALL_TAGS, seed=seed)
        for k in (1, 4, 9, 20):
            assert_kbest_equals_reference(model, sent("c"), k)
    cs = decode_one(zero_model(), sent("x"), 20)
    assert [str(l[0]) for l, _ in cs.candidates] == list(ALL_TAGS)


def test_kbest_single_tag_equals_the_tuple_beam():
    model = toy_model(tags=("O",), seed=4)
    for k in (1, 3):
        assert_kbest_equals_reference(model, sent("a", "b", "d"), k)
    (labels, prob), = decode_one(model, sent("a", "b", "d"), 3).candidates
    assert [str(l) for l in labels] == ["O"] * 3
    assert prob == 1.0


def test_kbest_beyond_the_path_count_equals_the_tuple_beam():
    model = toy_model(seed=6)  # 3 tags, 3 tokens: 27 paths
    s = sent("d", "a", "c")
    for k in (26, 27, 28, 100):
        assert_kbest_equals_reference(model, s, k)
    assert len(decode_one(model, s, 100)) == 27
    zero = zero_model(tags=("B-PER", "I-PER", "O"))
    assert_kbest_equals_reference(zero, sent("x", "y", "z"), 40)


# ---------------------------------------------------------------------------
# training

def test_train_memorizes_single_sentence():
    ds = parse_conll("Johnar x B-PER\nwent x O\n\n")
    model = crf_train(ds, FeatureTemplateSet(), **dict(CRF, epochs=60, lr=0.1, seed=1))
    assert decode_one(model, ds.sentences[0], 1).candidates[0][0] == ds.gold[0]


def test_train_zero_epochs_is_uniform():
    ds = simple_corpus(8, seed=4)
    model = crf_train(ds, FeatureTemplateSet(), **dict(CRF, epochs=0))
    s = ds.sentences[0]
    k = len(ALL_TAGS)
    expected = 1.0 / k ** len(s)
    assert sequence_prob(model, s, ds.gold[0]) == pytest.approx(expected, rel=1e-12)


def test_train_nll_strictly_decreases():
    ds = simple_corpus(200, seed=5)
    model = crf_train(ds, FeatureTemplateSet(), **dict(CRF, epochs=5, lr=0.005, seed=2))
    h = model.nll_history
    assert len(h) == 6
    for a, b in zip(h, h[1:]):
        assert b < a, f"NLL went {a:.4f} -> {b:.4f}"


def test_train_is_deterministic():
    ds = simple_corpus(40, seed=6)
    m1 = crf_train(ds, FeatureTemplateSet(), **dict(CRF, epochs=2, seed=3))
    m2 = crf_train(ds, FeatureTemplateSet(), **dict(CRF, epochs=2, seed=3))
    assert m1.emit.tobytes() == m2.emit.tobytes()
    assert m1.trans.tobytes() == m2.trans.tobytes()
    m3 = crf_train(ds, FeatureTemplateSet(), **dict(CRF, epochs=2, seed=4))
    assert m1.emit.tobytes() != m3.emit.tobytes()


def test_train_rejects_empty_dataset():
    with pytest.raises(ValueError):
        crf_train(Dataset([], []), FeatureTemplateSet(), **CRF)


def test_non_finite_loss_names_the_crf_stage_and_batch():
    # numbered from 1 as the stage lines number them: with a step this
    # large the third batch of 4 in the first of 3 epochs overflows
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NerrankError, match=r"\(nan\) in CRF epoch 1/3, batch 3$"):
            crf_train(
                simple_corpus(10, seed=1), FeatureTemplateSet(),
                epochs=3, batch_size=4, lr=1e100, l2=1e-4, seed=0,
            )


def test_train_learns_simple_corpus():
    ds = simple_corpus(120, seed=7)
    model = crf_train(ds, FeatureTemplateSet(), **dict(CRF, epochs=8, seed=0))
    wrong = sum(
        1 for s, g in ds if decode_one(model, s, 1).candidates[0][0] != g
    )
    assert wrong <= len(ds) * 0.05


def test_sentence_nll_gradient_matches_finite_differences():
    model = toy_model(words=("a", "b", "c"), seed=11)
    # feature 0 fires at three positions, position 2 has no known feature
    ids = sentence_ids(([0, 1], [0], [], [2, 0]))
    tags = [0, 1, 2, 2]
    grads = tuple(np.zeros_like(a) for a in (model.emit, model.trans, model.begin, model.end))
    nll = model.batch_nll([ids], [tags], (every_row(grads[0]), *grads[1:]))[0]

    def objective():
        e = sentence_emissions(model, ids)
        return model.log_partition(e) - score_tag_ids(model, e, tags)

    assert nll == objective()
    h = 1e-5
    weights = (model.emit, model.trans, model.begin, model.end)
    for name, w, g in zip(("emit", "trans", "begin", "end"), weights, grads):
        for i in np.ndindex(w.shape):
            orig = w[i]
            w[i] = orig + h
            up = objective()
            w[i] = orig - h
            down = objective()
            w[i] = orig
            numeric = (up - down) / (2 * h)
            rel = abs(g[i] - numeric) / max(abs(g[i]), abs(numeric), 1e-6)
            assert rel < 1e-6, f"{name}{list(i)}: {g[i]} vs {numeric}"


def test_batch_nll_gradient_matches_finite_differences_on_mixed_lengths():
    model = toy_model(words=("a", "b", "c"), seed=11)
    # a T=1 sentence beside the T=4 one above, whose position 2 has no
    # known feature
    batch_ids = [sentence_ids(([1, 2],)), sentence_ids(([0, 1], [0], [], [2, 0]))]
    batch_tags = [[2], [0, 1, 2, 2]]
    grads = tuple(np.zeros_like(a) for a in (model.emit, model.trans, model.begin, model.end))
    nlls = model.batch_nll(batch_ids, batch_tags, (every_row(grads[0]), *grads[1:]))

    def objective():
        total = 0.0
        for ids, tags in zip(batch_ids, batch_tags):
            e = sentence_emissions(model, ids)
            total += model.log_partition(e) - score_tag_ids(model, e, tags)
        return total

    assert sum(nlls.tolist()) == objective()
    h = 1e-5
    weights = (model.emit, model.trans, model.begin, model.end)
    for name, w, g in zip(("emit", "trans", "begin", "end"), weights, grads):
        for i in np.ndindex(w.shape):
            orig = w[i]
            w[i] = orig + h
            up = objective()
            w[i] = orig - h
            down = objective()
            w[i] = orig
            numeric = (up - down) / (2 * h)
            rel = abs(g[i] - numeric) / max(abs(g[i]), abs(numeric), 1e-6)
            assert rel < 1e-6, f"{name}{list(i)}: {g[i]} vs {numeric}"


def every_row(table):
    """`table` as the emit entry of `batch_nll`'s gradients: a `RowGrad`
    over all its rows, whose scatter adds into the table itself."""
    return RowGrad(np.arange(len(table)), table, 1, 0.0)


def reference_logsumexp(a, axis=None):
    m = np.max(a, axis=axis, keepdims=True)
    out = np.log(np.sum(np.exp(a - m), axis=axis, keepdims=True)) + m
    return np.squeeze(out, axis=axis) if axis is not None else out.reshape(())


def reference_emissions(model, ids):
    """The per-position sum that batching replaced. With two or more tags
    numpy adds an (n, K) block's rows in sequence. A one-tag (n, 1) column
    it sums pairwise, an order the batched scatter does not keep, so there
    the rows are added one by one."""
    e = np.zeros((len(ids.counts), len(model.tags)))
    for t, row_ids in enumerate(positions(ids)):
        if len(model.tags) == 1:
            for row in model.emit[row_ids]:
                e[t] += row
        elif row_ids.size:
            e[t] = model.emit[row_ids].sum(axis=0)
    return e


def reference_sentence_nll(model, ids, tag_ids, grads=None):
    """The per-sentence NLL and gradient that batching replaced: Python
    loops over positions for the emissions, alpha, beta and the edge
    marginals, and one `np.add.at` per position."""
    e = reference_emissions(model, ids)
    alpha = np.zeros(e.shape)
    alpha[0] = model.begin + e[0]
    for t in range(1, e.shape[0]):
        alpha[t] = reference_logsumexp(alpha[t - 1][:, None] + model.trans, axis=0) + e[t]
    log_z = float(reference_logsumexp(alpha[-1] + model.end))
    nll = log_z - score_tag_ids(model, e, tag_ids)
    if grads is None:
        return nll
    g_emit, g_trans, g_begin, g_end = grads
    y = tag_ids
    rows = positions(ids)
    t_count = len(rows)
    beta = np.zeros(alpha.shape)
    beta[-1] = model.end
    for t in range(t_count - 2, -1, -1):
        beta[t] = reference_logsumexp(model.trans + (e[t + 1] + beta[t + 1])[None, :], axis=1)

    node = np.exp(alpha + beta - log_z)  # (T, K) marginals
    expected = node.copy()
    for t in range(t_count):
        expected[t, y[t]] -= 1.0
        np.add.at(g_emit, rows[t], expected[t])
    g_begin += expected[0]
    g_end += node[-1]
    g_end[y[-1]] -= 1.0
    for t in range(1, t_count):
        edge = np.exp(alpha[t - 1][:, None] + model.trans + (e[t] + beta[t])[None, :] - log_z)
        g_trans += edge
        g_trans[y[t - 1], y[t]] -= 1.0
    return nll


def reference_batch_nll(model, batch_ids, batch_tags, grads=None):
    """The per-sentence reference over a batch. A `RowGrad` emit entry, as
    training passes, stands for the dense table holding its values in its
    rows: the reference adds into that table and copies the rows back."""
    if grads is not None and isinstance(grads[0], RowGrad):
        rows, values = grads[0].rows, grads[0].values
        table = np.zeros_like(model.emit)
        table[rows] = values
        nlls = reference_batch_nll(model, batch_ids, batch_tags, (table, *grads[1:]))
        values[...] = table[rows]
        return nlls
    return np.array([
        reference_sentence_nll(model, ids, tags, grads)
        for ids, tags in zip(batch_ids, batch_tags)
    ])


# mostly small integers and halves, so sums are often exact and tie
NLL_WEIGHTS = st.one_of(
    st.integers(-2, 2).map(float),
    st.integers(-4, 4).map(lambda x: x / 2),
    st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def nll_batches(draw):
    """A model of 1-9 tags over 1-12 features, and a batch of 1-8 sentences
    of 1-12 positions; a position has 0-10 feature ids (repeats allowed)."""
    n_tags = draw(st.integers(1, len(ALL_TAGS)))
    n_feats = draw(st.integers(1, 12))

    def vec(n):
        return np.array(draw(st.lists(NLL_WEIGHTS, min_size=n, max_size=n)))

    model = CrfModel(
        tags=ALL_TAGS[:n_tags],
        feature_vocab=tuple(f"f{i}" for i in range(n_feats)),
        templates=WORD_ONLY,
        emit=vec(n_feats * n_tags).reshape(n_feats, n_tags),
        trans=vec(n_tags * n_tags).reshape(n_tags, n_tags),
        begin=vec(n_tags),
        end=vec(n_tags),
    )
    position = st.lists(st.integers(0, n_feats - 1), max_size=10)
    batch_ids, batch_tags = [], []
    for length in draw(st.lists(st.integers(1, 12), min_size=1, max_size=8)):
        batch_ids.append(sentence_ids(draw(st.lists(position, min_size=length, max_size=length))))
        batch_tags.append(draw(st.lists(st.integers(0, n_tags - 1), min_size=length, max_size=length)))
    return model, batch_ids, batch_tags


def assert_same_bits(a, b, name=""):
    # tobytes also tells -0.0 from 0.0, which array_equal does not
    assert np.array_equal(a, b) and a.tobytes() == b.tobytes(), name


@given(nll_batches(), st.booleans())
def test_batch_nll_equals_the_per_sentence_reference(batch, zero_start):
    model, batch_ids, batch_tags = batch
    weights = (model.emit, model.trans, model.begin, model.end)
    # gradients are added into what the caller's arrays already hold
    start = [np.zeros_like(w) if zero_start else w.copy() for w in weights]
    expected = tuple(a.copy() for a in start)
    got = tuple(a.copy() for a in start)
    want = reference_batch_nll(model, batch_ids, batch_tags, expected)
    assert_same_bits(model.batch_nll(batch_ids, batch_tags, (every_row(got[0]), *got[1:])), want)
    assert_same_bits(model.batch_nll(batch_ids, batch_tags), want)
    for name, g, ref in zip(("emit", "trans", "begin", "end"), got, expected):
        assert_same_bits(g, ref, name)
    for ids, tags, nll in zip(batch_ids, batch_tags, want.tolist()):
        assert model.batch_nll([ids], [tags])[0] == nll
        assert_same_bits(sentence_emissions(model, ids), reference_emissions(model, ids))


@given(nll_batches(), st.integers(0, 2**32 - 1))
def test_batch_nll_adds_into_a_row_gradient_as_into_its_table_rows(batch, seed):
    model, batch_ids, batch_tags = batch
    rng = np.random.default_rng(seed)
    # every id of the batch and some the batch lacks, each row already
    # holding a value that the gradient is added to
    rows = np.flatnonzero(rng.random(len(model.emit)) < 0.5)
    rows = np.union1d(rows, np.concatenate([ids.ids for ids in batch_ids]))
    values = rng.normal(size=(rows.size, len(model.tags)))
    table = np.zeros_like(model.emit)
    table[rows] = values
    small = [np.zeros_like(w) for w in (model.trans, model.begin, model.end)]
    want = model.batch_nll(batch_ids, batch_tags, (every_row(table), *small))
    grad = RowGrad(rows, values.copy(), 1.0, 0.0)
    got = model.batch_nll(batch_ids, batch_tags, (grad, *[np.zeros_like(g) for g in small]))
    assert_same_bits(got, want)
    assert_same_bits(grad.values, table[rows])


def test_batch_nll_equals_the_per_sentence_reference_in_small_gathers(monkeypatch):
    # a position holds up to 10 ids, so gathers of 2 split positions and
    # sentences; np.add.at adds in index order across gathers as within one
    monkeypatch.setattr(crf_module, "GATHER", 2)
    test_batch_nll_equals_the_per_sentence_reference()


def test_bounded_gathers_give_the_same_bits(monkeypatch):
    ds = simple_corpus(20, seed=4)
    model = crf_train(ds, FeatureTemplateSet(), **dict(CRF, epochs=1))
    ids = model.interned_ids(intern_features(ds.sentences, model.templates))
    tags = [[model.tag_id(label) for label in gold] for gold in ds.gold]
    assert min(row.size for sentence in ids for row in positions(sentence)) > 3

    # the rows training passes: the batch's distinct ids
    distinct = np.unique(np.concatenate([sentence.ids for sentence in ids]))

    def run():
        grads = tuple(np.zeros_like(w) for w in (model.emit, model.trans, model.begin, model.end))
        rows = RowGrad(distinct, np.zeros((len(distinct), len(model.tags))), 1.0, 0.0)
        small = tuple(np.zeros_like(g) for g in grads[1:])
        arrays = {
            "nll": model.batch_nll(ids, tags),
            "nll with grads": model.batch_nll(ids, tags, (every_row(grads[0]), *grads[1:])),
            "nll with rows": model.batch_nll(ids, tags, (rows, *small)),
            "rows": rows.values,
        }
        arrays.update(zip(("emit", "trans", "begin", "end"), grads))
        return arrays, kbest_decode(model, ids, 5)

    default, default_kbest = run()
    # gathers of 3 ids split every position's ids
    monkeypatch.setattr(crf_module, "GATHER", 3)
    small, small_kbest = run()
    for name, array in default.items():
        assert_same_bits(small[name], array, name)
    assert small_kbest == default_kbest


def dense_reference_train(train, templates, *, epochs, batch_size, lr, l2, seed):
    """`crf_train` with a dense emit gradient, as it was: every batch
    fills four gradient tables with 0.0, sums its gradient into them (the
    emit table as a `RowGrad` over every row), divides them by the batch
    size and adds `l2 * p` BLOCK values at a time before the Adam step.
    The vocabulary, ids and batch order are crf_train's (its zero-epoch
    model)."""
    model = crf_train(train, templates, epochs=0, batch_size=batch_size, lr=lr, l2=l2, seed=seed)
    feat_ids = model.interned_ids(intern_features(train.sentences, templates))
    gold_ids = [[model.tag_id(l) for l in labels] for labels in train.gold]
    params = [Tensor(a) for a in (model.emit, model.trans, model.begin, model.end)]
    opt = AdamState(params, lr=lr, beta1=0.9, beta2=0.999, eps=1e-8)
    grads = tuple(np.empty_like(p.data) for p in params)
    rng = np.random.default_rng([seed, crf_module.SHUFFLE_STREAM])
    for _ in range(epochs):
        order = rng.permutation(len(train))
        for start in range(0, len(order), batch_size):
            batch = order[start : start + batch_size]
            for g in grads:
                g.fill(0.0)
            emit_rows = (every_row(grads[0]), *grads[1:])
            model.batch_nll([feat_ids[i] for i in batch], [gold_ids[i] for i in batch], emit_rows)
            for p, g in zip(params, grads):
                g /= len(batch)
                flat_g, flat_p = g.reshape(-1), p.data.reshape(-1)
                for at in range(0, g.size, optim.BLOCK):
                    flat_g[at : at + optim.BLOCK] += flat_p[at : at + optim.BLOCK] * l2
                p.grad = g
            opt.step()
        model.nll_history.append(crf_module._mean_nll(model, feat_ids, gold_ids))
    return model


def test_train_equals_the_dense_gradient_reference(monkeypatch):
    ds = simple_corpus(30, seed=12)
    # 30 sentences in batches of 4: the last batch holds 2. Blocks of 5
    # values split the emit rows of 9, so a batch's rows straddle blocks,
    # and gathers of 3 split every position's ids
    monkeypatch.setattr(optim, "BLOCK", 5)
    monkeypatch.setattr(crf_module, "GATHER", 3)
    options = dict(CRF, epochs=2, batch_size=4, lr=0.05, l2=0.01, seed=5)
    model = crf_train(ds, FeatureTemplateSet(), **options)
    reference = dense_reference_train(ds, FeatureTemplateSet(), **options)
    for name in ("emit", "trans", "begin", "end"):
        assert_same_bits(getattr(model, name), getattr(reference, name), name)
    assert model.nll_history == reference.nll_history


def random_word_corpus(n_sentences: int, length: int, seed: int) -> Dataset:
    """Sentences of random 8-letter words: nearly every word is new, so
    each token adds about 20 features."""
    rng = np.random.default_rng(seed)
    letters = np.array(list("abcdefghijklmnopqrstuvwxyz"))
    sentences, gold = [], []
    for i in range(n_sentences):
        words = ["".join(rng.choice(letters, 8)) for _ in range(length)]
        sentences.append(Sentence(i, tuple(Token(w.capitalize() if j == 0 else w) for j, w in enumerate(words))))
        gold.append([BioLabel.parse("B-PER")] + [BioLabel.parse("O")] * (length - 1))
    return Dataset(sentences, gold)


def test_train_holds_the_emit_table_and_two_moments_of_its_size():
    ds = random_word_corpus(250, 10, seed=3)
    features = intern_features(ds.sentences, FeatureTemplateSet())
    options = dict(CRF, epochs=1)
    # a first run imports what training uses, so the traced run allocates
    # only its own arrays and objects
    crf_train(simple_corpus(10, seed=1), FeatureTemplateSet(), **options)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        model = crf_train(ds, FeatureTemplateSet(), **options, features=features)
        peak = tracemalloc.get_traced_memory()[1] - start
        # what training holds besides the tables, measured by building it
        # again: the vocabulary (the tuple of names in id order; no dict
        # numbers them) and the training sentences' ids in the model's
        # numbering
        before = tracemalloc.get_traced_memory()[0]
        names = tuple(sorted(model.feature_vocab))
        ids = model.interned_ids(features)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    del names, ids
    emit = model.emit.nbytes
    assert emit >= 2 << 20
    # slack: `held`; Adam's two scratch blocks (2 * BLOCK * 8 bytes); and
    # the largest transient, a no-gradient batch of NLL_CHUNK sentences:
    # one gather of emit rows (GATHER * K * 8 bytes) plus 1 MB for its
    # lattice and id arrays and small objects (0.45 MB measured). The part
    # not measured here is smaller than the emit table, so a fourth table
    # of its size (a dense gradient) cannot fit
    fixed = 2 * optim.BLOCK * 8 + crf_module.GATHER * len(ALL_TAGS) * 8 + (1 << 20)
    assert fixed < emit
    assert peak < 3 * emit + held + fixed, (peak, emit, held, fixed)


def test_train_equals_the_per_sentence_reference(monkeypatch):
    ds = simple_corpus(30, seed=12)
    # 30 sentences in batches of 4: the last batch holds 2; the gradient
    # of each batch's emit rows comes from the per-sentence reference
    options = dict(CRF, epochs=2, batch_size=4, lr=0.05, seed=5)
    model = crf_train(ds, FeatureTemplateSet(), **options)
    monkeypatch.setattr(CrfModel, "batch_nll", reference_batch_nll)
    reference = crf_train(ds, FeatureTemplateSet(), **options)
    for name in ("emit", "trans", "begin", "end"):
        assert getattr(model, name).tobytes() == getattr(reference, name).tobytes(), name
    assert model.nll_history == reference.nll_history


def test_crf_weights_do_not_depend_on_the_update_block_size(monkeypatch):
    # Adam and the L2 term go through the weights BLOCK values at a time;
    # here every table fits one block, and blocks of 5 split every emit row
    ds = simple_corpus(12, seed=5)
    opts = dict(CRF, epochs=2, l2=0.01)
    whole = crf_train(ds, FeatureTemplateSet(), **opts)
    assert whole.emit.size < optim.BLOCK
    monkeypatch.setattr(optim, "BLOCK", 5)
    blocked = crf_train(ds, FeatureTemplateSet(), **opts)
    for name in ("emit", "trans", "begin", "end"):
        assert getattr(blocked, name).tobytes() == getattr(whole, name).tobytes()


def test_each_crf_epoch_is_logged_when_it_is_computed(caplog, monkeypatch):
    ds = simple_corpus(10, seed=13)
    batch_nll = CrfModel.batch_nll

    def traced(self, ids, tag_ids, grads=None):
        if grads is not None:
            logging.getLogger("nerrank.trace").info("batch")
        return batch_nll(self, ids, tag_ids, grads)

    monkeypatch.setattr(CrfModel, "batch_nll", traced)
    with caplog.at_level(logging.INFO, logger="nerrank.trace"):
        model = crf_train(ds, FeatureTemplateSet(), **dict(CRF, epochs=2, batch_size=4))
    lines = [r.getMessage() for r in caplog.records if r.name == "nerrank.trace"]
    # 10 sentences in batches of 4: each epoch's line follows its 3 batches
    assert [line.split(":")[0] for line in lines] == (
        ["batch"] * 3 + ["CRF epoch 1/2"] + ["batch"] * 3 + ["CRF epoch 2/2"]
    )
    epoch_lines = [line for line in lines if line != "batch"]
    for line, nll in zip(epoch_lines, model.nll_history[1:]):
        assert re.fullmatch(rf".*: \d+\.\d{{3}} s, sentences=10, mean_nll={nll:.6g}", line)


MALFORMED_MODELS = {
    "emit": lambda m: {"emit": m.emit[:-1]},
    "trans": lambda m: {"trans": m.trans[:, :-1]},
    "begin": lambda m: {"begin": m.begin[:1]},
    "end": lambda m: {"end": m.end[:, None]},
    "non-finite": lambda m: {"trans": np.where(m.trans > 0, np.nan, m.trans)},
    "duplicate-tag": lambda m: {"tags": (m.tags[0],) + m.tags[:-1]},
    "duplicate-feature": lambda m: {"feature_vocab": (m.feature_vocab[0],) + m.feature_vocab[:-1]},
    "malformed-tag": lambda m: {"tags": ("X-FOO",) + m.tags[1:]},
    "unknown-type": lambda m: {"tags": ("B-FOO",) + m.tags[1:]},
}


@pytest.mark.parametrize("case", sorted(MALFORMED_MODELS))
def test_model_rejects_malformed_weights_and_tags(case):
    good = toy_model()
    with pytest.raises(ValueError):
        dataclasses.replace(good, **MALFORMED_MODELS[case](good))


# ---------------------------------------------------------------------------
# jackknifing

def fold(ds: Dataset, held: range) -> tuple[Dataset, Dataset]:
    """A jackknife fold's training part (every sentence outside `held`)
    and its held-out block."""
    rest = [i for i in range(len(ds)) if i not in held]
    return (
        Dataset([ds.sentences[i] for i in rest], [ds.gold[i] for i in rest]),
        Dataset([ds.sentences[i] for i in held], [ds.gold[i] for i in held]),
    )


def test_jackknife_even_split():
    ds = simple_corpus(10)
    pairs = [fold(ds, block) for block in jackknife(len(ds), 5)]
    held_ids = [tuple(s.id for s in held.sentences) for _, held in pairs]
    assert [len(h) for h in held_ids] == [2, 2, 2, 2, 2]
    flat = [i for h in held_ids for i in h]
    assert sorted(flat) == list(range(10))
    for train_part, held in pairs:
        assert len(train_part) == 8
        train_ids = {s.id for s in train_part.sentences}
        assert train_ids.isdisjoint({s.id for s in held.sentences})


def test_jackknife_uneven_split():
    assert [len(block) for block in jackknife(11, 5)] == [3, 2, 2, 2, 2]


def test_jackknife_two_of_two():
    assert [len(block) for block in jackknife(2, 2)] == [1, 1]


def test_jackknife_blocks_are_contiguous():
    ds = simple_corpus(10)
    for block in jackknife(len(ds), 3):
        _, held = fold(ds, block)
        ids = [s.id for s in held.sentences]
        assert ids == list(range(ids[0], ids[0] + len(ids)))


@given(st.integers(2, 60).flatmap(lambda n: st.tuples(st.just(n), st.integers(2, n))))
def test_jackknife_blocks_tile_the_corpus_in_order(case):
    n, folds = case
    blocks = jackknife(n, folds)
    assert len(blocks) == folds
    # contiguous, in order, and together every index once
    assert all(isinstance(block, range) and block.step == 1 for block in blocks)
    assert [i for block in blocks for i in block] == list(range(n))
    sizes = [len(block) for block in blocks]
    assert max(sizes) - min(sizes) <= 1
    # the remainder goes to the earliest blocks
    assert sizes == sorted(sizes, reverse=True)


def test_jackknife_errors():
    with pytest.raises(ValueError):
        jackknife(10, 1)
    with pytest.raises(ValueError):
        jackknife(3, 5)


# ---------------------------------------------------------------------------
# n-best corpora

def test_build_nbest_covers_every_sentence_once():
    ds = simple_corpus(20, seed=8)
    corpus = build_nbest_corpus(ds, folds=5, k=4, templates=FeatureTemplateSet(), **dict(CRF, epochs=2))
    assert len(corpus) == 20
    for sent_obj, cs in corpus:
        assert cs.sentence_id == sent_obj.id
        assert 1 <= len(cs) <= 4
        assert cs.gold is not None


def test_each_jackknife_fold_is_logged_when_it_ends(caplog):
    ds = simple_corpus(11, seed=8)
    with caplog.at_level(logging.INFO, logger="nerrank.trace"):
        build_nbest_corpus(ds, folds=3, k=2, templates=FeatureTemplateSet(), **dict(CRF, epochs=1))
    lines = [r.getMessage() for r in caplog.records if r.name == "nerrank.trace"]
    # held-out blocks of 4, 4 and 3; each fold's line follows its training
    assert [line.split(":")[0] for line in lines] == [
        "CRF epoch 1/1", "jackknife fold 1/3",
        "CRF epoch 1/1", "jackknife fold 2/3",
        "CRF epoch 1/1", "jackknife fold 3/3",
    ]
    fold_lines = lines[1::2]
    for line, train, held in zip(fold_lines, (7, 7, 8), (4, 4, 3)):
        assert re.fullmatch(rf".*: \d+\.\d{{3}} s, trained={train}, decoded={held}", line)


def test_each_jackknife_fold_model_is_released_before_the_next_trains(monkeypatch):
    # fold 1's model (its emit table and vocabulary) must not live through
    # fold 2's training
    train = crf_module.crf_train
    models, alive = [], []

    def tracked(*args, **kwargs):
        alive.append([ref() is not None for ref in models])
        model = train(*args, **kwargs)
        models.append(weakref.ref(model))
        return model

    monkeypatch.setattr(crf_module, "crf_train", tracked)
    build_nbest_corpus(simple_corpus(9, seed=2), folds=3, k=2, templates=FeatureTemplateSet(), **dict(CRF, epochs=1))
    assert alive == [[], [False], [False, False]]


def test_jackknife_with_shared_features_equals_independent_folds():
    # build_nbest_corpus interns each sentence once and hands its ids to
    # every fold; each fold must equal a model trained and decoded alone
    ds = simple_corpus(12, seed=3)
    templates = FeatureTemplateSet()
    opts = dict(CRF, epochs=1)
    corpus = build_nbest_corpus(ds, folds=3, k=4, templates=templates, **opts)
    sets = []
    for block in jackknife(len(ds), 3):
        train_part, held = fold(ds, block)
        model = crf_train(train_part, templates, **opts)
        sets += [decode_one(model, s, 4, g) for s, g in held]
    assert format_nbest(corpus) == format_nbest(NBestCorpus(ds.sentences, sets))
    three = intern_features(ds.sentences[:3], templates)
    with pytest.raises(ValueError, match="3 feature lists for 12 sentences"):
        crf_train(ds, templates, features=three, **opts)
    with pytest.raises(ValueError, match="3 feature lists for 12 sentences"):
        decode_corpus(model, ds, 4, features=three)


def test_jackknife_drops_a_held_out_feature_its_fold_never_saw():
    # the first sentence carries a word no other sentence has; its fold maps
    # corpus ids to its own and must drop that word's features, as a model
    # trained on the fold alone drops their strings
    ds = simple_corpus(6, seed=4)
    first = ds.sentences[0]
    rare = Sentence(first.id, (Token("Qzxv"),) + first.tokens[1:])
    ds = Dataset([rare, *ds.sentences[1:]], ds.gold)
    templates = FeatureTemplateSet()
    opts = dict(CRF, epochs=1)
    corpus = build_nbest_corpus(ds, folds=2, k=4, templates=templates, **opts)
    train_part, held = fold(ds, jackknife(len(ds), 2)[0])
    model = crf_train(train_part, templates, **opts)
    assert "w[0]=Qzxv" in featurize(rare, templates)[0]
    assert "w[0]=Qzxv" not in model.feature_vocab
    alone = [decode_one(model, s, 4, g) for s, g in held]
    assert format_nbest(NBestCorpus(held.sentences, corpus.sets[: len(held)])) == format_nbest(
        NBestCorpus(held.sentences, alone)
    )


def test_decode_corpus_attaches_gold():
    ds = simple_corpus(10, seed=9)
    model = crf_train(ds, FeatureTemplateSet(), **dict(CRF, epochs=2))
    corpus = decode_corpus(model, ds, 3)
    for (s, g), cs in zip(ds, corpus.sets):
        assert cs.gold == g
        assert len(cs) <= 3


# ---------------------------------------------------------------------------
# interchange format

def labs(*texts):
    return [BioLabel.parse(t) for t in texts]


def small_corpus():
    s0 = sent("Johnar", "went", sid=0)
    s1 = sent("Romest", sid=1)
    cs0 = CandidateSet(0, labs("B-PER", "O"), [
        (labs("B-PER", "O"), 0.7),
        (labs("O", "O"), 0.2),
    ])
    cs1 = CandidateSet(1, None, [(labs("B-LOC"), 0.9)])
    return NBestCorpus([s0, s1], [cs0, cs1])


def test_nbest_roundtrip():
    corpus = small_corpus()
    text = format_nbest(corpus)
    back = parse_nbest(text)
    assert len(back) == 2
    assert back.sentences[0].surfaces == ["Johnar", "went"]
    assert back.sets[0].gold == labs("B-PER", "O")
    assert back.sets[1].gold is None
    assert [l for l, _ in back.sets[0].candidates] == [l for l, _ in corpus.sets[0].candidates]
    for (_, p1), (_, p2) in zip(back.sets[0].candidates, corpus.sets[0].candidates):
        assert p1 == pytest.approx(p2, rel=1e-11)
    # probabilities carry at least 12 significant digits
    assert "7.000000000000e-01" in text


@st.composite
def nbest_corpora(draw, any_gold=False):
    """Corpora as the decoders write them: gold (when present) in BIO2,
    candidates any labels with descending probabilities summing to 1.
    With `any_gold`, every set has gold, valid BIO2 or not."""
    n = draw(st.integers(1, 4))
    ids = draw(st.lists(st.integers(0, 10**6), min_size=n, max_size=n, unique=True))
    sents, sets = [], []
    for sid in ids:
        s = draw(sentences(st.just(sid), max_len=5))
        if any_gold:
            gold = draw(label_seqs(len(s)))
        else:
            gold = draw(st.none() | label_seqs(len(s)).map(normalize_to_bio2))
        weights = draw(st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=5))
        probs = sorted((w / sum(weights) for w in weights), reverse=True)
        cands = [(draw(label_seqs(len(s))), p) for p in probs]
        sents.append(s)
        sets.append(CandidateSet(sid, gold, cands))
    return NBestCorpus(sents, sets)


@given(nbest_corpora())
def test_nbest_format_survives_a_parse(corpus):
    text = format_nbest(corpus)
    assert format_nbest(parse_nbest(text)) == text


@given(nbest_corpora(any_gold=True))
def test_corpus_derivations_equal_the_direct_formulas(corpus):
    """The corpus reads accuracies, span matches and patterns off each
    candidate's one collapse; they equal what the labels give directly."""
    for sentence, cs, accuracy, match, patterns in zip(
        corpus.sentences, corpus.sets, corpus.accuracy, corpus.span_match, corpus.patterns
    ):
        gold = normalize_to_bio2(cs.gold)
        cands = [normalize_to_bio2(labels) for labels, _ in cs.candidates]
        gspans = extract_spans(gold)
        spans = [extract_spans(labels) for labels in cands]
        assert accuracy == tuple(tag_accuracy(gold, labels) for labels in cands)
        assert match == (len(gspans), tuple(len(s & gspans) for s in spans), tuple(map(len, spans)))
        assert patterns == tuple(
            tuple(collapsed_token_strings(collapse(sentence, labels))) for labels, _ in cs.candidates
        )


def test_nbest_reader_resorts_candidates():
    text = (
        "#SENT 0\n"
        "TOKENS\ta\tb\n"
        "CAND\t0.1\tO\tO\n"
        "CAND\t0.5\tB-PER\tO\n"
        "\n"
    )
    corpus = parse_nbest(text)
    probs = [p for _, p in corpus.sets[0].candidates]
    assert probs == [0.5, 0.1]


def test_nbest_reader_normalizes_gold_only():
    text = (
        "#SENT 0\n"
        "TOKENS\ta\tb\n"
        "GOLD\tI-PER\tI-PER\n"
        "CAND\t0.5\tI-PER\tI-PER\n"
        "\n"
    )
    corpus = parse_nbest(text)
    assert corpus.sets[0].gold == labs("B-PER", "I-PER")
    # candidates keep their raw tags; downstream normalizes when needed
    assert corpus.sets[0].candidates[0][0] == labs("I-PER", "I-PER")


def test_nbest_reader_skips_metadata_header():
    text = "# nerrank 0.1.0 config deadbeef\n#SENT 0\nTOKENS\ta\nCAND\t0.5\tO\n\n"
    assert len(parse_nbest(text)) == 1


def test_nbest_parse_errors():
    with pytest.raises(ParseError, match="line 3"):
        parse_nbest("#SENT 0\nTOKENS\ta\tb\nCAND\t0.5\tO\n\n")
    with pytest.raises(ParseError, match="probability"):
        parse_nbest("#SENT 0\nTOKENS\ta\nCAND\tnope\tO\n\n")
    with pytest.raises(ParseError, match="outside"):
        parse_nbest("#SENT 0\nTOKENS\ta\nCAND\t1.5\tO\n\n")
    with pytest.raises(ParseError, match="no candidates"):
        parse_nbest("#SENT 0\nTOKENS\ta\n\n")
    with pytest.raises(ParseError, match="no TOKENS"):
        parse_nbest("#SENT 0\n\n")
    with pytest.raises(ParseError, match="duplicate"):
        parse_nbest("#SENT 0\nTOKENS\ta\nCAND\t0.5\tO\n\n#SENT 0\nTOKENS\tb\nCAND\t0.5\tO\n\n")
    with pytest.raises(ParseError, match="sum"):
        parse_nbest("#SENT 0\nTOKENS\ta\nCAND\t0.8\tO\nCAND\t0.7\tB-PER\n\n")
    with pytest.raises(ParseError, match="before any"):
        parse_nbest("TOKENS\ta\n")


def test_candidate_set_validation():
    with pytest.raises(ValueError, match="no candidates"):
        CandidateSet(0, None, [])
    with pytest.raises(ValueError, match="probability"):
        CandidateSet(0, None, [(labs("O"), 0.0)])
    with pytest.raises(ValueError, match="sorted"):
        CandidateSet(0, None, [(labs("O"), 0.2), (labs("B-PER"), 0.5)])
    with pytest.raises(ValueError, match="sum"):
        CandidateSet(0, None, [(labs("O"), 0.8), (labs("B-PER"), 0.8)])
    cs = CandidateSet(0, None, [(labs("O"), 0.5), (labs("B-PER"), 0.3)])
    corpus = NBestCorpus([sent("a", sid=0)], [cs])
    assert len(corpus.truncated(1).sets[0]) == 1
    assert corpus.truncated(5).sets[0] is cs
    with pytest.raises(ValueError, match="k must be >= 1"):
        corpus.truncated(0)


def test_nbest_corpus_alignment_checks():
    s = sent("a", sid=0)
    good = CandidateSet(0, None, [(labs("O"), 0.5)])
    with pytest.raises(ValueError):
        NBestCorpus([s], [])
    with pytest.raises(ValueError, match="id"):
        NBestCorpus([s], [CandidateSet(1, None, [(labs("O"), 0.5)])])
    with pytest.raises(ValueError, match="length"):
        NBestCorpus([s], [CandidateSet(0, None, [(labs("O", "O"), 0.5)])])
    assert len(NBestCorpus([s], [good])) == 1
