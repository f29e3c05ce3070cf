"""The stat-checked zip-import cache (``repro._zipcache``): unchanged
archives are not re-read, changed or deleted ones behave as stock
Python does, and Spark workers run with the fix installed."""
from __future__ import annotations

import importlib
import sys
import zipfile
import zipimport

import pytest

import repro._zipcache as zipcache

pytestmark = pytest.mark.skipif(
    sys.version_info >= (3, 12), reason="the fix is installed only on Python < 3.12"
)


def _write_zip(path, modules: dict[str, str]) -> None:
    with zipfile.ZipFile(path, "w") as z:
        for name, src in modules.items():
            z.writestr(f"{name}.py", src)


@pytest.fixture
def archive(tmp_path, monkeypatch):
    """A zip on ``sys.path`` holding one module, imported once; yields
    (path, read-counter) with ``zipimport._read_directory`` counted."""
    path = tmp_path / "mods.zip"
    _write_zip(path, {"zc_first": "X = 1\n"})
    monkeypatch.syspath_prepend(str(path))
    importlib.invalidate_caches()
    import zc_first  # noqa: F401

    reads = []
    real = zipimport._read_directory

    def counting(archive_path):
        reads.append(archive_path)
        return real(archive_path)

    monkeypatch.setattr(zipimport, "_read_directory", counting)
    yield path, reads
    for name in ("zc_first", "zc_second"):
        sys.modules.pop(name, None)
    sys.path_importer_cache.pop(str(path), None)
    zipimport._zip_directory_cache.pop(str(path), None)
    zipcache._read_stamps.pop(str(path), None)


def test_installed():
    assert zipimport.zipimporter.invalidate_caches is zipcache.invalidate_caches


def test_unchanged_archive_not_reread(archive):
    path, reads = archive
    importlib.invalidate_caches()  # first call after import records the stamp
    reads.clear()
    for _ in range(3):
        importlib.invalidate_caches()
    assert str(path) not in reads


def test_rewritten_archive_is_reread(archive):
    path, reads = archive
    importlib.invalidate_caches()
    _write_zip(path, {"zc_first": "X = 1\n", "zc_second": "Y = 2\n"})
    reads.clear()
    importlib.invalidate_caches()
    assert str(path) in reads
    import zc_second

    assert zc_second.Y == 2


def test_deleted_archive_behaves_as_stock(archive):
    path, _ = archive
    importer = zipimport.zipimporter(str(path))
    importlib.invalidate_caches()
    path.unlink()
    importer.invalidate_caches()
    assert importer._files == {}
    assert str(path) not in zipimport._zip_directory_cache
    assert str(path) not in zipcache._read_stamps


def test_workers_run_with_the_fix(spark):
    def probe(_):
        import zipimport

        import repro._zipcache

        yield zipimport.zipimporter.invalidate_caches is repro._zipcache.invalidate_caches

    got = spark.sparkContext.parallelize(range(4), 4).mapPartitions(probe).collect()
    assert got == [True] * 4
