from __future__ import annotations

import pytest

import wmub.bases
import wmub.cli
import wmub.geometry
import wmub.hilbert
import wmub.zring
from wmub.bases import build_wmub
from wmub.geometry import maximal_line_catalog
from wmub.zring import crt_context

PRIME_PAIRS = {15: (3, 5), 21: (3, 7), 33: (3, 11)}


@pytest.fixture(scope="session")
def ctx15():
    return crt_context(3, 5)


@pytest.fixture(scope="session")
def contexts():
    return {d: crt_context(*pair) for d, pair in PRIME_PAIRS.items()}


@pytest.fixture(scope="session")
def catalog15(ctx15):
    return maximal_line_catalog(ctx15)


@pytest.fixture(scope="session")
def catalogs(contexts):
    return {d: maximal_line_catalog(ctx) for d, ctx in contexts.items()}


@pytest.fixture(scope="session")
def wmub15(catalog15):
    return build_wmub(catalog15)


@pytest.fixture(scope="session")
def wmub_sets(catalogs):
    return {d: build_wmub(catalog) for d, catalog in catalogs.items()}


@pytest.fixture
def cold_context_caches():
    """Clear the per-context caches, before and after the test: the checked
    catalog, the CRT relabelling and the kept pair certificate of `verify`,
    the context itself and its point-map certificate.  A fault injected
    below them must be seen, a cold call's passes counted, and nothing the
    test certified may reach a later test."""
    caches = (
        wmub.cli.verified_catalog, wmub.hilbert.check_crt_relabelling, wmub.cli.verified_pairs,
        wmub.zring.crt_context, wmub.geometry.check_point_map,
    )
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()
