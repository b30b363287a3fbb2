"""The text rule of every input document: UTF-8 only, one leading BOM
dropped, and a JSON document that is one object. A leaf: it imports no
heartfade module, so `simulate` and `rates` read JSON without `ingest`."""

from __future__ import annotations

import json


def utf8_text(data: bytes | str, error: type[ValueError]) -> str:
    """`data` as text, one leading U+FEFF (byte-order mark) dropped from
    bytes or `str`. Bytes must be UTF-8: the first byte that does not decode
    raises error("not UTF-8: byte 0x.. at offset N"), N counted from the
    first byte, the BOM included."""
    text = data
    if isinstance(data, bytes):
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise error(
                f"not UTF-8: byte 0x{data[exc.start]:02x} at offset {exc.start}"
            ) from None
    return text.removeprefix("\ufeff")


def json_object(data: bytes | str, error: type[ValueError], what: str) -> dict:
    """The JSON object in `data`, read as text by `utf8_text`. Text that is
    not UTF-8, JSON that does not parse and a document that is not an
    object raise error("invalid {what}: ...")."""
    try:
        doc = json.loads(utf8_text(data, ValueError))
    except (ValueError, RecursionError) as exc:
        # not UTF-8, JSONDecodeError, an integer over Python's digit limit,
        # or nesting deeper than the recursion limit
        raise error(f"invalid {what}: {exc}") from None
    if not isinstance(doc, dict):
        raise error(f"invalid {what}: expected an object")
    return doc
