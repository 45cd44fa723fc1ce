"""Multi-tenant :class:`~repro.he.context.HeContext` cache for the serving layer.

A *tenant* is one ``(params, key seed)`` pair — the unit at which HE state
can be shared: everyone under the same parameters and seed shares key
material, twiddle caches, compiled plans and (crucially for cross-request
batching) a :meth:`~repro.he.context.HeContext.pipeline` whose plan cache
the batcher compiles group plans into.  The cache is keyed by :func:`params_hash`, a stable digest of the
canonical parameter dictionary, which is also the tenant id reported on the
metrics surface.

Isolation properties the tests pin:

* the **same** hash returns the **same** cached tenant (contexts, key
  material and plan caches are shared, so repeat traffic is warm);
* **different** params or seeds build fully isolated tenants — each gets a
  *fresh* backend instance via :func:`~repro.backends.registry.build_backend`
  (never the registry singleton), so backend counters cannot bleed between
  tenants;
* every tenant's registry is a child of the server's root registry: counter
  increments propagate up (fleet totals for free, the
  :class:`~repro.telemetry.metrics.MetricsRegistry` parent-chain semantics),
  while per-tenant snapshots stay per-tenant.
"""

from __future__ import annotations

import hashlib
import json
import threading

from ..backends.registry import build_backend, resolve_backend
from ..he.context import HeContext
from ..he.params import HEParams
from ..telemetry.metrics import MetricsRegistry
from .protocol import params_dict

__all__ = ["params_hash", "Tenant", "TenantCache"]


def params_hash(params: HEParams, seed: int) -> str:
    """Stable tenant id for a ``(parameter set, key seed)`` pair."""
    canonical = dict(params_dict(params), seed=seed)
    blob = json.dumps(canonical, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


class Tenant:
    """One cached HE session: context + pipeline + metrics subtree."""

    __slots__ = ("key", "params", "seed", "context", "pipeline", "registry")

    def __init__(
        self,
        key: str,
        params: HEParams,
        seed: int,
        context: HeContext,
        registry: MetricsRegistry,
    ) -> None:
        self.key = key
        self.params = params
        self.seed = seed
        self.context = context
        #: One shared pipeline per tenant: its plan cache is where the
        #: batcher's cross-request group plans are compiled once per shape,
        #: and every batch binds the context's NTT-resident key as it is.
        self.pipeline = context.pipeline()
        self.registry = registry

    def metrics(self) -> dict:
        """This tenant's own snapshot (backend + context, nobody else's)."""
        return self.context.metrics()


class TenantCache:
    """Thread-safe ``params hash -> Tenant`` cache under one root registry.

    Args:
        root: The server's root metrics registry; every tenant registry is
            created as its child so increments aggregate upward.
        backend: Registry name of the backend each tenant gets a dedicated
            instance of (``None`` resolves the registry default — which
            honours ``REPRO_BACKEND`` — once per tenant build).
        shards: Optional shard count applied when the tenant backend
            shards (the ``parallel`` backend).
    """

    def __init__(
        self,
        root: MetricsRegistry,
        backend: str | None = None,
        shards: int | None = None,
    ) -> None:
        self._root = root
        self._backend_name = backend
        self._shards = shards
        self._tenants: dict[str, Tenant] = {}
        self._lock = threading.Lock()
        root.set_gauge("service.tenants", lambda: len(self._tenants))

    @property
    def shards(self) -> "int | None":
        """The configured shard count (``None`` = backend default)."""
        return self._shards

    def backend_name(self) -> str:
        """The registry name tenant backends are built from (resolving the
        registry default — which honours ``REPRO_BACKEND`` — when the cache
        was built without an explicit name)."""
        return self._backend_name or resolve_backend(None).name

    def get(self, params: HEParams, seed: int) -> Tenant:
        """The cached tenant for ``(params, seed)``, built on first use."""
        key = params_hash(params, seed)
        with self._lock:
            tenant = self._tenants.get(key)
            if tenant is not None:
                if tenant.params != params or tenant.seed != seed:
                    raise RuntimeError(
                        "params-hash collision for tenant %s" % key
                    )  # pragma: no cover - sha256 collision
                return tenant
            registry = MetricsRegistry(parent=self._root)
            name = self._backend_name or resolve_backend(None).name
            backend = build_backend(name)
            if self._shards is not None and hasattr(backend, "set_shards"):
                backend.set_shards(self._shards)
            # The backend built its registry before the tenant existed;
            # adopt it so conversion/dispatch counters roll up through the
            # tenant into the server root.
            registry.adopt(backend.metrics)
            context = HeContext.create(
                params, backend=backend, seed=seed, metrics_parent=registry
            )
            tenant = Tenant(key, params, seed, context, registry)
            self._tenants[key] = tenant
            return tenant

    def tenants(self) -> dict[str, Tenant]:
        """A point-in-time copy of the live tenant table."""
        with self._lock:
            return dict(self._tenants)

    def close(self) -> None:
        """Shut down every tenant's dedicated backend (worker pools etc.)."""
        with self._lock:
            tenants = list(self._tenants.values())
            self._tenants.clear()
        for tenant in tenants:
            close = getattr(tenant.context.backend, "close", None)
            if close is not None:
                close()
