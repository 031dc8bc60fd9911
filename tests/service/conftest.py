"""Fixtures shared by the service tests: one store, one registry, one writer."""

import pytest

from repro.obs import MetricsRegistry, use_registry
from repro.service import QueryService
from repro.store import IndexStore


@pytest.fixture
def store_path(community_hypergraph, tmp_path):
    IndexStore.build(community_hypergraph, tmp_path / "idx", num_shards=4)
    return str(tmp_path / "idx")


@pytest.fixture
def registry():
    """Isolate every instrument the test's components bind."""
    with use_registry(MetricsRegistry()) as reg:
        yield reg


@pytest.fixture
def writer(store_path):
    with QueryService(store_path, max_batch=16) as service:
        yield service
