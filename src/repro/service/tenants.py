"""Multi-tenant namespacing of the observatory store.

One server hosts many projects; each tenant owns an isolated
:class:`~repro.observatory.store.ObservatoryStore` rooted at
``<root>/<tenant>/`` — separate ``history.jsonl``, separate in-memory
read rows, separate gc.  Nothing is shared across tenants except the
process, so a tenant's compaction, drift detection or run history can
never observe another's.

Tenant names are validated against a strict slug grammar *before* they
touch the filesystem — a tenant name is an untrusted wire input, and
the grammar (lowercase alphanumerics, ``.``, ``_``, ``-``; must start
alphanumeric; at most 64 chars) makes path traversal unrepresentable
rather than filtered.

Every store access goes through the tenant's re-entrant lock
(:meth:`TenantManager.lock`): the store itself is a single-writer
structure, so the service serialises per tenant while different
tenants proceed in parallel on different worker threads.

A tenant exists once its store does (:func:`~repro.observatory.store_exists`).
Only an upload that adds a run creates one (:meth:`TenantManager.store`);
the upload door check and every read go through
:meth:`TenantManager.find`, so a mistyped tenant name gets ``no such
tenant`` and a failed upload leaves no store on disk.
"""

from __future__ import annotations

import os
import re
import threading
from typing import Dict, List, Optional

from ..observatory import ObservatoryStore, store_exists

__all__ = ["TENANT_RE", "DEFAULT_TENANT", "TenantError", "TenantManager"]

#: the slug grammar of a valid tenant name
TENANT_RE = re.compile(r"^[a-z0-9][a-z0-9._-]{0,63}$")

DEFAULT_TENANT = "default"


class TenantError(ValueError):
    """An invalid tenant name, or a read of a tenant that has no store
    (neither touches the filesystem)."""


def validate_tenant(name: str) -> str:
    """Return ``name`` when it is a valid tenant slug, else raise."""
    if not isinstance(name, str) or not TENANT_RE.match(name):
        raise TenantError(
            f"invalid tenant name {name!r} (want: lowercase slug "
            f"[a-z0-9][a-z0-9._-]*, at most 64 chars)")
    if ".." in name:
        raise TenantError(f"invalid tenant name {name!r} ('..' not allowed)")
    return name


class TenantManager:
    """Lazily-opened, lock-guarded per-tenant observatory stores."""

    def __init__(self, root: str):
        self.root = root
        os.makedirs(root, exist_ok=True)
        self._guard = threading.Lock()
        self._stores: Dict[str, ObservatoryStore] = {}
        self._locks: Dict[str, threading.RLock] = {}

    def lock(self, tenant: str) -> threading.RLock:
        """The tenant's store lock (created on first use)."""
        tenant = validate_tenant(tenant)
        with self._guard:
            lock = self._locks.get(tenant)
            if lock is None:
                lock = self._locks[tenant] = threading.RLock()
            return lock

    def path(self, tenant: str) -> str:
        return os.path.join(self.root, validate_tenant(tenant))

    def store(self, tenant: str) -> ObservatoryStore:
        """The tenant's store, opened (and replayed, or created) on first
        access — the upload side's accessor.

        Callers must hold :meth:`lock` for any read or write — the
        store is not internally synchronised.
        """
        tenant = validate_tenant(tenant)
        with self._guard:
            store = self._stores.get(tenant)
        if store is not None:
            return store
        opened = ObservatoryStore(self.path(tenant))
        with self._guard:
            # another thread may have raced the open; keep the first
            store = self._stores.setdefault(tenant, opened)
        if store is not opened:
            opened.close()
        return store

    def find(self, tenant: str) -> Optional[ObservatoryStore]:
        """The tenant's store if it is open or on disk, else None: it never
        creates a store."""
        if tenant not in self._stores and not store_exists(self.path(tenant)):
            return None
        return self.store(tenant)

    def existing_store(self, tenant: str) -> ObservatoryStore:
        """:meth:`find`, or :class:`TenantError` ``no such tenant`` (the
        read side's accessor)."""
        store = self.find(tenant)
        if store is None:
            raise TenantError(f"no such tenant {tenant!r}")
        return store

    def tenants(self) -> List[str]:
        """Every tenant with a store on disk or opened in memory, sorted."""
        names = set(self._stores)
        try:
            for name in os.listdir(self.root):
                if (TENANT_RE.match(name)
                        and store_exists(os.path.join(self.root, name))):
                    names.add(name)
        except OSError:
            pass
        return sorted(names)

    def close(self) -> None:
        with self._guard:
            for store in self._stores.values():
                store.close()
            self._stores.clear()
