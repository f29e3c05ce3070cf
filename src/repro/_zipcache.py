"""Stat-checked ``zipimporter.invalidate_caches`` for Python < 3.12.

Before every task a pyspark worker calls ``importlib.invalidate_caches()``.
On CPython 3.11 that makes each cached ``zipimporter`` re-read its whole
archive directory, once per sub-path importer: once for every package
imported from ``pyspark.zip`` (about 1.3k entries) and from the
spark-core jar (about 5.4k entries). That costs 0.2-0.3 s of CPU per
task; with this fix a no-op Python job over 4 partitions drops from
0.33-0.44 s to 0.13-0.14 s (4-core box).

CPython 3.12 made the re-read lazy. This backport re-reads an archive
only if its ``(st_mtime_ns, st_size)`` changed since this module last
read it, or if it cannot be stat'ed, was never read here, or has no
cached directory; otherwise the importer rebinds to the cached
directory. A deleted archive behaves as stock 3.11 does. Importing
:mod:`repro` installs it, so every Spark worker that unpickles a
``repro`` function has it from its next task on.
"""
from __future__ import annotations

import os
import sys
import zipimport

#: archive path -> (st_mtime_ns, st_size), stat'ed just before the last read
_read_stamps: dict[str, tuple[int, int]] = {}


def invalidate_caches(self) -> None:
    """Reload the archive's directory only if the file changed."""
    archive = self.archive
    try:
        st = os.stat(archive)
        stamp = (st.st_mtime_ns, st.st_size)
    except OSError:
        stamp = None
    files = zipimport._zip_directory_cache.get(archive)
    if stamp is not None and files is not None and _read_stamps.get(archive) == stamp:
        self._files = files
        return
    _read_stamps.pop(archive, None)
    try:
        self._files = zipimport._read_directory(archive)
    except zipimport.ZipImportError:
        zipimport._zip_directory_cache.pop(archive, None)
        self._files = {}
        return
    zipimport._zip_directory_cache[archive] = self._files
    if stamp is not None:
        _read_stamps[archive] = stamp


if sys.version_info < (3, 12):
    zipimport.zipimporter.invalidate_caches = invalidate_caches
