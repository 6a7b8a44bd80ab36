"""JSON on disk and over the wire: the JSON-lines file codec shared by every
reader and writer, and the JSON POST used by every remote client."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, TypeVar

T = TypeVar("T")


def read_jsonl(
    path: str | Path,
    error_cls: type[Exception],
    what: str,
    convert: Callable[[Any], T] = lambda rec: rec,
) -> Iterator[T]:
    """Yield ``convert(record)`` for each non-blank line, in file order.

    A leading UTF-8 byte-order mark is skipped. Bad JSON, and any
    ``ValueError``, ``KeyError`` or ``TypeError`` raised by ``convert``,
    becomes ``error_cls`` naming ``what``, the line and the file; callers
    raise ``ValueError`` for their own per-record checks.
    """
    with Path(path).open(encoding="utf-8-sig") as fh:
        yield from convert_lines(enumerate(fh, start=1), path, error_cls, what, convert)


def convert_lines(
    numbered: Iterable[tuple[int, str]],
    path: str | Path,
    error_cls: type[Exception],
    what: str,
    convert: Callable[[Any], T],
) -> Iterator[T]:
    """:func:`read_jsonl` over lines already read, each with its line
    number in ``path``."""
    for lineno, line in numbered:
        if not line.strip():
            continue
        try:
            rec = convert(json.loads(line))
        except (ValueError, KeyError, TypeError) as exc:
            raise error_cls(f"malformed {what} at line {lineno} of {path}: {exc}") from exc
        yield rec


def json_list(value: Any, field: str) -> list:
    """``value`` if it is a JSON array; else ``ValueError`` naming ``field``,
    which :func:`read_jsonl` reports with the file and line. A string is not
    taken for a list of its characters."""
    if not isinstance(value, list):
        raise ValueError(f"{field!r} must be a list, got {value!r}")
    return value


def json_text(value: Any, field: str) -> str:
    """``value`` if it is a JSON string; else ``ValueError`` naming
    ``field``, as :func:`json_list` does. Null, a number or an object is
    not taken for the text of its ``str()``."""
    if not isinstance(value, str):
        raise ValueError(f"{field!r} must be text, got {value!r}")
    return value


def json_id(value: Any, field: str) -> str:
    """``value`` as an id's text: a JSON string as it is, a number as its
    ``str()``; else ``ValueError`` naming ``field``, as :func:`json_list`
    does. Null, true, false, a list or an object is not taken for the text
    of its ``str()``."""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return str(value)
    raise ValueError(f"{field!r} must be text or a number, got {value!r}")


def write_jsonl(records: Iterable[Any], path: str | Path) -> None:
    """Write one compact JSON document per line (UTF-8)."""
    with Path(path).open("w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, ensure_ascii=False) + "\n")


def post_json(url: str, payload: Any, field: str, timeout: float, error_cls: type[Exception]) -> Any:
    """POST ``payload`` as JSON and return ``field`` of the JSON reply.

    Transport failures, non-2xx statuses, non-JSON replies and replies
    without ``field`` all raise ``error_cls``. The HTTP client is imported
    here so that offline runs never load it.
    """
    import http.client
    import urllib.request

    request = urllib.request.Request(
        url, data=json.dumps(payload).encode("utf-8"), headers={"Content-Type": "application/json"}
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as resp:
            return json.loads(resp.read())[field]
    except (OSError, http.client.HTTPException, ValueError, KeyError, TypeError) as exc:
        raise error_cls(f"POST to {url} failed: {exc}") from exc
