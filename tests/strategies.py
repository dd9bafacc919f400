"""`hypothesis` strategies shared by the property tests: token surfaces,
sentences and label sequences over every CRF tag, valid BIO2 or not."""

from hypothesis import strategies as st

from nerrank.baseline.crf import ALL_TAGS
from nerrank.corpus import BioLabel, Sentence, Token

# no whitespace of any kind (the file formats split on it), and too short
# to be CoNLL's -DOCSTART- marker
surfaces = st.text(
    st.characters(blacklist_categories=("Zs", "Zl", "Zp", "Cc", "Cs")),
    min_size=1,
    max_size=6,
).filter(lambda s: not any(c.isspace() for c in s))

# includes I- after O and I-X after B-Y, which normalize_to_bio2 repairs
labels = st.sampled_from(ALL_TAGS).map(BioLabel.parse)


def sentences(sid=st.just(0), max_len=8):
    return st.builds(
        lambda i, words: Sentence(i, tuple(Token(w) for w in words)),
        sid,
        st.lists(surfaces, min_size=1, max_size=max_len),
    )


def label_seqs(length: int):
    return st.lists(labels, min_size=length, max_size=length)
