"""HE-as-a-service: the async multi-tenant serving layer.

This package applies the paper's wide-batch throughput claim to *traffic*:
concurrent requests for the same tenant and op chain coalesce into one
cross-request fused plan (stacked along the batch axis with the existing
``Concat``/``SliceRows`` IR nodes), execute once on the pinned backend, and
split back per request — bit-for-bit equal to serial execution.

Layout:

* :mod:`~repro.service.protocol` — request grammar, validation, errors;
* :mod:`~repro.service.tenants` — params-hash-keyed ``HeContext`` cache
  with per-tenant metrics subtrees under the server root;
* :mod:`~repro.service.batching` — group execution (one pipeline expression
  per request, compiled together by ``Pipeline.run_many``) and the asyncio
  coalescer;
* :mod:`~repro.service.server` — the stdlib asyncio HTTP server (and the
  ``python -m repro.experiments serve`` entry point);
* :mod:`~repro.service.client` — sync and asyncio clients.
"""

from .batching import CrossRequestBatcher, execute_group, group_signature
from .client import AsyncServiceClient, ServiceClient
from .protocol import PROTOCOL_VERSION, ServiceError, build_request, jsonable
from .server import HeServer, ServerThread
from .tenants import Tenant, TenantCache, params_hash

__all__ = [
    "PROTOCOL_VERSION",
    "AsyncServiceClient",
    "CrossRequestBatcher",
    "HeServer",
    "ServerThread",
    "ServiceClient",
    "ServiceError",
    "Tenant",
    "TenantCache",
    "build_request",
    "execute_group",
    "group_signature",
    "jsonable",
    "params_hash",
]
