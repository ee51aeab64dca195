"""File access: atomic writes (temp file in the target directory, then
rename) and UTF-8 line reads."""

import os
import tempfile


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
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.readlines()
    except UnicodeDecodeError:
        raise error(f"{path}: not valid UTF-8 text") from None
