"""Content-addressed result cache for the CLI.

One file per key under the cache directory; the key hashes the command,
every parameter, the artifact version and a fingerprint of the package's
sources, so a version bump or any edit to the code invalidates everything.
Writes go through a temp file and rename, so a crash never leaves a
half-written entry; hits are byte-identical to recomputation.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import tempfile
import time

from . import __version__


@functools.cache
def source_fingerprint() -> str:
    """SHA-256 of the package's *.py sources, taken in sorted file-name order."""
    here = os.path.dirname(os.path.abspath(__file__))
    digest = hashlib.sha256()
    for name in sorted(f for f in os.listdir(here) if f.endswith(".py")):
        with open(os.path.join(here, name), "rb") as fh:
            data = fh.read()
        digest.update(f"{name}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


def cache_key(command: str, params: dict) -> str:
    """The entry name for one command; hashes the sources on first use."""
    blob = json.dumps(
        {"command": command, "params": params, "version": __version__, "code": source_fingerprint()},
        sort_keys=True,
        default=str,
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def lookup(cache_dir: str | None, key: str) -> str | None:
    """The cached payload, or None on a miss.

    An entry that is missing or cannot be read back (truncated, empty, or
    without a string payload) is a miss, so the caller recomputes and
    store() overwrites it.
    """
    if not cache_dir:
        return None
    try:
        with open(os.path.join(cache_dir, key + ".json")) as fh:
            payload = json.load(fh)["payload"]
    except (OSError, ValueError, KeyError, TypeError):
        return None
    return payload if isinstance(payload, str) else None


def store(cache_dir: str | None, key: str, payload: str) -> None:
    if not cache_dir:
        return
    os.makedirs(cache_dir, exist_ok=True)
    entry = {"key": key, "payload": payload, "created_at": time.time()}
    fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(entry, fh)
        os.replace(tmp, os.path.join(cache_dir, key + ".json"))
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
