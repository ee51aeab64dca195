"""File access: atomic writes, UTF-8 line reads and the JSON text every
report and sidecar is written as. A write creates a new temp file beside
its target, exclusively and with the mode ``open()`` gives under the umask,
then renames it over the target."""

import io
import os


def atomic_write_bytes(path, data: bytes) -> None:
    path = os.fspath(path)
    tmp = os.path.join(os.path.dirname(path), f".tmp-{os.urandom(8).hex()}~")
    fh = open(tmp, "xb")
    try:
        with fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
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
    """``json.dumps(obj, indent=2)``; ``json`` loads here, on the first JSON
    write, so ``import bicsi`` does not need it."""
    import json

    return json.dumps(obj, indent=2)
