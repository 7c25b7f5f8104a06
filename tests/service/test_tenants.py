"""Tenant slug validation and per-tenant store isolation."""

import os

import pytest

from repro.observatory import HISTORY_FILENAME, ingest_bytes
from repro.service import DEFAULT_TENANT, TenantError, TenantManager, validate_tenant

from .util import profile_dump_bytes


@pytest.mark.parametrize("name", [
    "default",
    "web-frontend",
    "t0.x_y",
    "a",
    "0numeric",
    "a" * 64,
])
def test_valid_tenant_names(name):
    assert validate_tenant(name) == name


@pytest.mark.parametrize("name", [
    "",
    "Web",
    "UPPER",
    "-leading-dash",
    ".leading-dot",
    "_leading-underscore",
    "has space",
    "a/b",
    "../escape",
    "a..b",
    "a" * 65,
    None,
    42,
])
def test_invalid_tenant_names(name):
    with pytest.raises(TenantError):
        validate_tenant(name)


def test_traversal_never_touches_filesystem(tmp_path):
    manager = TenantManager(str(tmp_path / "tenants"))
    try:
        with pytest.raises(TenantError):
            manager.path("../outside")
        with pytest.raises(TenantError):
            manager.store("../outside")
        assert not (tmp_path / "outside").exists()
    finally:
        manager.close()


def test_stores_are_isolated(tmp_path):
    manager = TenantManager(str(tmp_path / "tenants"))
    try:
        alpha = manager.store("alpha")
        beta = manager.store("beta")
        assert alpha is not beta
        ingest_bytes(alpha, profile_dump_bytes({"r": lambda n: n}),
                     run_id="run-a")
        assert alpha.has_run("run-a")
        assert not beta.has_run("run-a")
        assert len(beta) == 0
        assert (tmp_path / "tenants" / "alpha" / HISTORY_FILENAME).exists()
        assert (tmp_path / "tenants" / "beta" / HISTORY_FILENAME).exists()
    finally:
        manager.close()


def test_store_is_cached_per_tenant(tmp_path):
    manager = TenantManager(str(tmp_path / "tenants"))
    try:
        assert manager.store("alpha") is manager.store("alpha")
        assert manager.lock("alpha") is manager.lock("alpha")
        assert manager.lock("alpha") is not manager.lock("beta")
    finally:
        manager.close()


def test_gc_is_per_tenant(tmp_path):
    manager = TenantManager(str(tmp_path / "tenants"))
    try:
        alpha = manager.store("alpha")
        beta = manager.store("beta")
        for index in range(3):
            dump = profile_dump_bytes({"r": lambda n: (index + 1) * n})
            ingest_bytes(alpha, dump, run_id=f"a-{index}",
                         timestamp=f"2026-08-0{index + 1}T00:00:00+00:00")
            ingest_bytes(beta, dump, run_id=f"b-{index}",
                         timestamp=f"2026-08-0{index + 1}T00:00:00+00:00")
        assert alpha.gc(keep=1) == 2
        assert len(alpha) == 1
        assert len(beta) == 3            # untouched by alpha's compaction
        assert [info.run_id for info in beta.runs()] == ["b-0", "b-1", "b-2"]
    finally:
        manager.close()


def test_tenants_listing_unions_disk_and_memory(tmp_path):
    root = tmp_path / "tenants"
    manager = TenantManager(str(root))
    try:
        manager.store("opened")
        os.makedirs(root / "ondisk")
        (root / "ondisk" / HISTORY_FILENAME).write_text("")
        os.makedirs(root / "nostore")         # a directory alone is no store
        os.makedirs(root / "NotATenant")      # invalid slug: ignored
        (root / "afile").write_text("not a dir")
        assert manager.tenants() == ["ondisk", "opened"]
        assert DEFAULT_TENANT not in manager.tenants()
    finally:
        manager.close()


def test_existing_store_never_creates_one(tmp_path):
    root = tmp_path / "tenants"
    manager = TenantManager(str(root))
    try:
        with pytest.raises(TenantError, match="no such tenant 'typo'"):
            manager.existing_store("typo")
        assert not (root / "typo").exists()
        opened = manager.store("web")
        assert manager.existing_store("web") is opened
        other = TenantManager(str(root))      # finds it on disk
        try:
            assert len(other.existing_store("web")) == 0
        finally:
            other.close()
    finally:
        manager.close()
