"""The contract of the four immutable records: construction, repr, equality,
hashing, immutability, copying and pickling."""

import copy
import pickle

import pytest

from linkgamma.equivalence import EquivVerdict
from linkgamma.gamma import GammaSeq, SeifertPresentation
from linkgamma.milnor import MilnorResidue

PRES_FIELDS = dict(
    genus=1, seifert_matrix=((0, 2), (1, 0)), v2=(1, 0), v3=(0, 1), lk23=1, name="p"
)

# (record, its fields in order, its exact repr)
RECORDS = [
    (
        SeifertPresentation(**PRES_FIELDS),
        tuple(PRES_FIELDS.values()),
        "SeifertPresentation(genus=1, seifert_matrix=((0, 2), (1, 0)), v2=(1, 0), "
        "v3=(0, 1), lk23=1, name='p')",
    ),
    (GammaSeq((1, -2, 3)), ((1, -2, 3),), "GammaSeq(entries=(1, -2, 3))"),
    (
        EquivVerdict.equivalent(-4),
        ("equivalent", -4, None),
        "EquivVerdict(kind='equivalent', shift=-4, witness_index=None)",
    ),
    (
        EquivVerdict.distinct(2),
        ("distinct", None, 2),
        "EquivVerdict(kind='distinct', shift=None, witness_index=2)",
    ),
    (MilnorResidue(3, 4, 1), (3, 4, 1), "MilnorResidue(index=3, modulus=4, residue=1)"),
]
IDS = ["presentation", "gamma", "equivalent", "distinct", "residue"]


@pytest.mark.parametrize("record, values, text", RECORDS, ids=IDS)
def test_repr_eq_and_hash(record, values, text):
    assert repr(record) == text
    twin = type(record)(*values)
    assert twin == record and not twin != record
    assert hash(twin) == hash(record) == hash(values)
    assert record != values
    assert (record == values) is False


@pytest.mark.parametrize("record, values, text", RECORDS, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(record, values, text):
    field = text[text.index("(") + 1 : text.index("=")]
    with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
        setattr(record, field, 0)
    with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 0
    assert repr(record) == text


@pytest.mark.parametrize("record, values, text", RECORDS, ids=IDS)
def test_copy_deepcopy_and_pickle_round_trip(record, values, text):
    clones = [copy.copy(record), copy.deepcopy(record)]
    clones += [pickle.loads(pickle.dumps(record, protocol)) for protocol in (0, 2, 5)]
    for clone in clones:
        assert type(clone) is type(record)
        assert clone == record and hash(clone) == hash(record)
        assert repr(clone) == text


def test_keyword_and_positional_construction():
    by_keyword = SeifertPresentation(**PRES_FIELDS)
    positional = SeifertPresentation(*PRES_FIELDS.values())
    assert by_keyword == positional
    unnamed = SeifertPresentation(1, ((0, 2), (1, 0)), (1, 0), (0, 1), 1)
    assert unnamed.name is None and unnamed != by_keyword
    assert GammaSeq(entries=(5,)) == GammaSeq((5,))
    assert EquivVerdict("indeterminate") == EquivVerdict.indeterminate()
    assert EquivVerdict(kind="distinct", witness_index=2) == EquivVerdict.distinct(2)
    assert MilnorResidue(index=3, modulus=4, residue=1) == MilnorResidue(3, 4, 1)
    with pytest.raises(TypeError):
        MilnorResidue(3, 4)
    with pytest.raises(TypeError):
        GammaSeq((1,), (2,))


def test_presentation_fields_become_tuples():
    p = SeifertPresentation(1, [[0, 2], [1, 0]], [1, 0], [0, 1], 1)
    assert p.seifert_matrix == ((0, 2), (1, 0))
    assert p.v2 == (1, 0) and p.v3 == (0, 1)
    assert p == SeifertPresentation(**{**PRES_FIELDS, "name": None})
    hash(p)


def test_gamma_seq_validation():
    assert GammaSeq([1, 2]).entries == (1, 2)
    assert GammaSeq(iter((0,))).order == 0
    with pytest.raises(ValueError, match="at least its order-0 entry"):
        GammaSeq(())
    for bad in ((1, "x"), (1, 2.0), (True,)):
        with pytest.raises(TypeError, match="gamma entries must be integers"):
            GammaSeq(bad)


def test_records_of_different_types_differ():
    assert GammaSeq((3, 4, 1)) != MilnorResidue(3, 4, 1)
    assert MilnorResidue(3, 4, 1) != GammaSeq((3, 4, 1))
