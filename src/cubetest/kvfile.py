"""The `key: value` text shared by report, plan, spec, summary,
certificate and trial-record files.

Each line is stripped; blank lines and lines starting with "#" are
skipped.  Every other line must contain a ":", splitting it into a key
(the stripped text before the first ":") and a value (the stripped text
after it).  A repeated key keeps its last value.  A value is read as a
number through `value` or `values`, so one that does not parse names its
key.
"""

from __future__ import annotations

from typing import Collection, Iterable, Optional, Sequence


def parse(text: str, line_kind: str = "") -> dict[str, str]:
    """Entries of `text`; a line without ":" raises
    ValueError("malformed <line_kind> line: ...")."""
    label = f"malformed {line_kind} line" if line_kind else "malformed line"
    entries: dict[str, str] = {}
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        if ":" not in ln:
            raise ValueError(f"{label}: {ln!r}")
        key, _, rest = ln.partition(":")
        entries[key.strip()] = rest.strip()
    return entries


def check(
    entries: dict[str, str],
    kind: str,
    schema: Optional[str] = None,
    required: Sequence[str] = (),
    allowed: Optional[Collection[str]] = None,
) -> dict[str, str]:
    """Return `entries` once its `schema:` equals `schema` (when given),
    every key is in `allowed` (when given; `schema` too, when a schema
    is given) and every key in `required` is present; else raise
    ValueError."""
    if schema is not None and entries.get("schema") != schema:
        raise ValueError(f"unknown {kind} schema {entries.get('schema')!r}")
    if allowed is not None:
        for key in entries:
            if key not in allowed and not (key == "schema" and schema is not None):
                raise ValueError(f"unknown {kind} key {key!r}")
    for key in required:
        if key not in entries:
            raise ValueError(f"{kind} missing {key!r} field")
    return entries


_TYPE_NAMES = {int: "an integer", float: "a number"}


def value(text: str, to: type, kind: str, key: str):
    """`to(text)` for `to` int or float; text that does not parse raises
    ValueError("<kind> key '<key>': '<text>' is not an integer") (or
    "a number")."""
    try:
        return to(text)
    except ValueError:
        raise ValueError(f"{kind} key {key!r}: {text!r} is not {_TYPE_NAMES[to]}") from None


def values(text: str, to: type, kind: str, key: str) -> tuple:
    """The whitespace-separated tokens of `text`, each read by `value`."""
    return tuple(value(tok, to, kind, key) for tok in text.split())


def write_lines(path, lines: Iterable[str]) -> None:
    """Write the lines to `path`, each ended by a newline."""
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
