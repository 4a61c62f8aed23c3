"""
The one tab-separated reader and writer behind every retrobio file format,
and the one JSON writer behind every report and stats file.

Files are UTF-8, decoded line by line. Reading skips empty lines and
'#'-prefixed lines, splits each remaining line on tabs and checks the field
count; every error raised while decoding or parsing a row names the file
and line as a ``path:line:`` prefix.
Writing emits a '# '-prefixed header, then one tab-joined line per row,
always with '\\n' line endings. JSON is written with sorted keys, two-space
indents and a final newline, with '\\n' line endings too.
"""

from __future__ import annotations

import json
from typing import Callable, Iterable, Sequence, TypeVar

__all__ = ["read_tsv", "write_tsv", "write_json"]

Row = TypeVar("Row")


def read_tsv(
    path,
    n_fields: int,
    parse: Callable[..., Row],
    *,
    error: type[ValueError] = ValueError,
    strip: bool = False,
    unique: str = "",
) -> list[Row]:
    """``parse(*fields)`` for every data row of ``path``, in file order.

    A line that is not UTF-8, or a row with other than ``n_fields``
    fields, raises ``error``. ``strip`` trims surrounding whitespace from
    each line instead of only the line break. ``unique`` names the first
    field when it is an id: a row repeating an earlier row's id raises
    ``error``, since either row could be the one meant. Any ValueError
    from a row keeps its class and gains the ``path:line:`` prefix.
    """
    rows = []
    seen: set[str] = set()
    with open(path, "rb") as fh:
        for line_no, raw in enumerate(fh, 1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise error(f"{path}:{line_no}: {exc}") from None
            line = line.strip() if strip else line.rstrip("\r\n")
            if not line or line.startswith("#"):
                continue
            fields = line.split("\t")
            try:
                if len(fields) != n_fields:
                    raise error(
                        f"expected {n_fields} tab-separated fields, "
                        f"got {len(fields)}"
                    )
                if unique:
                    if fields[0] in seen:
                        raise error(f"repeated {unique} {fields[0]!r}")
                    seen.add(fields[0])
                rows.append(parse(*fields))
            except ValueError as exc:
                exc.args = (f"{path}:{line_no}: {exc}",)
                raise
    return rows


def write_tsv(
    path, header: Sequence[str], rows: Iterable[Sequence[str]]
) -> None:
    """Write ``header`` as a '# ' comment line, then one line per row."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# " + "\t".join(header) + "\n")
        for row in rows:
            fh.write("\t".join(row) + "\n")


def write_json(path, payload) -> None:
    """Write ``payload`` as indented JSON with sorted keys."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
