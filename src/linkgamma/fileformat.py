"""Reading and writing the JSON documents understood by the command line.

Two document kinds, distinguished by the presence of ``seifert_matrix``
(never by file extension):

presentation file::

    {"genus": 1, "seifert_matrix": [[0, 2], [1, 0]],
     "v2": [1, 0], "v3": [0, 1], "lk23": 1, "name": "optional"}

sequence file::

    {"gamma": [1, 1, 2, 4, 8], "name": "optional"}

``v2`` and ``v3`` are coordinates in the linking-dual basis of the surface
complement, not surface-basis coordinates.  All numbers must be JSON
integers; the sequence array must be nonempty.  Parse problems raise
:class:`InputFormatError` with line/field diagnostics.
"""

from __future__ import annotations

import json

from .gamma import GammaSeq, SeifertPresentation


class InputFormatError(ValueError):
    """A document failed to parse or violated the file schema."""


# CPython's default limit on int <-> str conversion; input is held to it
# even in a process that lifted the limit to print large exact results.
_MAX_INPUT_DIGITS = 4300


def _parse_int(token: str) -> int:
    if len(token) - token.startswith("-") > _MAX_INPUT_DIGITS:
        raise InputFormatError(
            f"parse error: integer with more than {_MAX_INPUT_DIGITS} digits"
        )
    return int(token)


def parse_document(text: str) -> dict:
    try:
        doc = json.loads(text, parse_int=_parse_int)
    except json.JSONDecodeError as exc:
        raise InputFormatError(
            f"parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError as exc:
        raise InputFormatError("parse error: arrays or objects nested too deeply") from exc
    if not isinstance(doc, dict):
        raise InputFormatError("document must be a JSON object")
    return doc


def document_kind(doc: dict) -> str:
    return "presentation" if "seifert_matrix" in doc else "sequence"


def _int_field(value, where: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise InputFormatError(f"field '{where}': expected an integer")
    return value


def _int_array(value, where: str) -> tuple[int, ...]:
    if not isinstance(value, list):
        raise InputFormatError(f"field '{where}': expected an array of integers")
    return tuple([_int_field(v, f"{where}[{i}]") for i, v in enumerate(value)])


def _required(doc: dict, key: str):
    if key not in doc:
        raise InputFormatError(f"field '{key}': missing")
    return doc[key]


def _name(doc: dict):
    name = doc.get("name")
    if name is not None and not isinstance(name, str):
        raise InputFormatError("field 'name': expected text")
    return name


def presentation_from_doc(doc: dict) -> SeifertPresentation:
    genus = _int_field(_required(doc, "genus"), "genus")
    raw = _required(doc, "seifert_matrix")
    if not isinstance(raw, list):
        raise InputFormatError("field 'seifert_matrix': expected an array of arrays")
    matrix = tuple(
        _int_array(row, f"seifert_matrix[{i}]") for i, row in enumerate(raw)
    )
    v2 = _int_array(_required(doc, "v2"), "v2")
    v3 = _int_array(_required(doc, "v3"), "v3")
    lk23 = _int_field(_required(doc, "lk23"), "lk23")
    return SeifertPresentation(genus, matrix, v2, v3, lk23, name=_name(doc))


def sequence_from_doc(doc: dict) -> tuple[GammaSeq, str | None]:
    entries = _int_array(_required(doc, "gamma"), "gamma")
    if not entries:
        raise InputFormatError("field 'gamma': array must be nonempty")
    return GammaSeq(entries), _name(doc)


def sequence_to_doc(seq: GammaSeq, name: str | None = None) -> dict:
    doc = {"gamma": list(seq.entries)}
    if name is not None:
        doc["name"] = name
    return doc


def load_text(text: str):
    """Parse a document and build the matching object.

    Returns ``("presentation", SeifertPresentation)`` or
    ``("sequence", (GammaSeq, name))``.
    """
    doc = parse_document(text)
    if document_kind(doc) == "presentation":
        return "presentation", presentation_from_doc(doc)
    return "sequence", sequence_from_doc(doc)
