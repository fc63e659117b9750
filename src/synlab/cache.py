"""Content-addressed result cache for the CLI.

One file per key under the cache directory; the key hashes the command,
every parameter, and the artifact version, so a version bump invalidates
everything.  Writes go through a temp file and rename, so a crash never
leaves a half-written entry; hits are byte-identical to recomputation.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time

from . import __version__


def cache_key(command: str, params: dict) -> str:
    blob = json.dumps(
        {"command": command, "params": params, "version": __version__},
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
