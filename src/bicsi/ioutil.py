"""File access: atomic writes (temp file in the target directory, then
rename), UTF-8 line reads and the JSON text every report and sidecar is
written as."""

import functools
import io
import os
import tempfile

_CONTAINERS = (dict, list, tuple)


def atomic_write_bytes(path, data: bytes) -> None:
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def read_lines(path, error: type) -> list[str]:
    """Lines of a UTF-8 text file; undecodable bytes raise ``error`` naming it."""
    with open(path, "rb") as fh:
        return decode_lines(path, fh.read(), error)


def decode_lines(path, raw: bytes, error: type) -> list[str]:
    """The lines a text-mode read of ``path`` gives for its bytes ``raw``:
    UTF-8, with LF, CRLF and CR line ends read as LF."""
    try:
        return io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8").readlines()
    except UnicodeDecodeError:
        raise error(f"{path}: not valid UTF-8 text") from None


def json_text(obj) -> str:
    """Exactly ``json.dumps(obj, indent=2)``.

    The standard library lays indented JSON out in pure Python, a call per
    value. Here the C encoder writes each container of scalars (a confusion
    row, a per-position record) in one call, and only containers of
    containers are laid out in Python.
    """
    out = []
    _layout(obj, "\n", out)
    return "".join(out)


@functools.lru_cache(maxsize=16)
def _encoder(inner: str = ""):
    """The C encoder, writing ``inner`` (a line break and an indent) after the
    comma between items, as ``indent=2`` does inside a container; no
    separator reaches a scalar or an empty container. ``json`` loads here,
    on the first JSON write: ``import bicsi`` does not need it."""
    import json

    return json.JSONEncoder(separators=("," + inner, ": ")).encode


def _layout(obj, newline: str, out: list) -> None:
    """Append the text of ``obj`` to ``out``; ``newline`` is the line break
    and indent of the line ``obj`` ends on."""
    if not isinstance(obj, _CONTAINERS) or not obj:
        out.append(_encoder()(obj))
        return
    inner = newline + "  "
    # the type test only skips a C call that would be thrown away; the text
    # test decides: a nested container opens with "[" or "{" (a string may
    # hold either, which only costs the slower path below)
    if isinstance(obj, dict):
        scalars = not any(isinstance(v, _CONTAINERS) for v in obj.values())
    else:
        scalars = not isinstance(obj[0], _CONTAINERS)
    if scalars:
        text = _encoder(inner)(obj)
        if text.find("[", 1) < 0 and text.find("{", 1) < 0:
            out.append(text[0] + inner + text[1:-1] + newline + text[-1])
            return
    if isinstance(obj, dict):
        opening, closing = "{", "}"
        items = ((_key(k) + ": ", v) for k, v in obj.items())
    else:
        opening, closing = "[", "]"
        items = (("", v) for v in obj)
    sep = opening + inner
    for prefix, value in items:
        out.append(sep + prefix)
        _layout(value, inner, out)
        sep = "," + inner
    out.append(newline + closing)


def _key(key) -> str:
    """A dict key as ``json`` writes it: a string, or the JSON text of a
    number, boolean or None, quoted."""
    if not isinstance(key, str):
        if not (isinstance(key, (int, float)) or key is None):
            raise TypeError(f"keys must be str, int, float, bool or None, "
                            f"not {key.__class__.__name__}")
        key = _encoder()(key)
    return _encoder()(key)
