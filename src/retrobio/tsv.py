"""
The one tab-separated reader and writer behind every retrobio file format.

Files are UTF-8. Reading skips empty lines and '#'-prefixed lines, splits
each remaining line on tabs and checks the field count; every error raised
while parsing a row names the file and line as a ``path:line:`` prefix.
Writing emits a '# '-prefixed header, then one tab-joined line per row,
always with '\\n' line endings.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence, TypeVar

__all__ = ["read_tsv", "write_tsv"]

Row = TypeVar("Row")


def read_tsv(
    path,
    n_fields: int,
    parse: Callable[..., Row],
    *,
    error: type[ValueError] = ValueError,
    strip: bool = False,
) -> list[Row]:
    """``parse(*fields)`` for every data row of ``path``, in file order.

    A row with other than ``n_fields`` fields raises ``error``. ``strip``
    trims surrounding whitespace from each line instead of only the line
    break. Any ValueError from a row keeps its class and gains the
    ``path:line:`` prefix.
    """
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip() if strip else line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            fields = line.split("\t")
            try:
                if len(fields) != n_fields:
                    raise error(
                        f"expected {n_fields} tab-separated fields, "
                        f"got {len(fields)}"
                    )
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
