"""Decoders read fixed runs of fields in one bounds-checked step and
build values without running their ``__init__``.  Checked exhaustively
over one built value of every type: every proper prefix of its encoding,
and the encoding with one byte more, is a ``DecodingError``, never a
bare ``struct.error``, ``IndexError`` or ``AttributeError``; and the
decoded value stands in for the built one."""

import dataclasses
import pickle

import pytest

from mutachain import Transaction, codec
from mutachain.errors import DecodingError
from test_decode_fuzz import BUILT

IDS = [f"{i}-{type(v).__name__}" + (f"-{v.kind.name}" if isinstance(v, Transaction) else "")
       for i, v in enumerate(BUILT)]


@pytest.mark.parametrize("value", BUILT, ids=IDS)
def test_every_prefix_and_one_trailing_byte_is_a_decoding_error(value):
    wire = value.encoded
    for data in [wire[:n] for n in range(len(wire))] + [wire + b"\x00"]:
        with pytest.raises(DecodingError):
            codec.decode_whole(type(value), data)


@pytest.mark.parametrize("value", BUILT, ids=IDS)
def test_a_decoded_value_stands_in_for_the_built_one(value):
    cls = type(value)
    got = codec.decode_whole(cls, value.encoded)
    assert got == value and hash(got) == hash(value)
    key = "txid" if isinstance(value, Transaction) else "block_hash"
    assert getattr(got, key) == getattr(value, key)
    assert {f.name for f in dataclasses.fields(cls)} <= set(vars(got))
    back = pickle.loads(pickle.dumps(got))
    assert back == value and hash(back) == hash(value)
    assert back.encoded == value.encoded
    fresh = dataclasses.replace(got)
    assert "encoded" not in vars(fresh)     # dropped, so encoded afresh
    assert fresh == value and fresh.encoded == value.encoded
