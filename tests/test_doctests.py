"""Run the doctests embedded in the public API docstrings."""

import doctest

import pytest

import repro
import repro.algebra
import repro.api
import repro.automata.fingerprint
import repro.engine.compiled
import repro.engine.kernel
import repro.engine.oracle
import repro.engine.tables
import repro.plan
import repro.plan.planner
import repro.rgx.parser
import repro.rgx.semantics
import repro.server.app
import repro.server.client
import repro.server.metrics
import repro.server.protocol
import repro.service
import repro.service.backend
import repro.service.cache
import repro.service.corpus
import repro.service.evaluate
import repro.service.queryset
import repro.spanner
import repro.spans.document
import repro.spans.span
import repro.workloads.land_registry
import repro.workloads.server_logs

MODULES = [
    repro,
    repro.algebra,
    repro.api,
    repro.automata.fingerprint,
    repro.engine.compiled,
    repro.engine.kernel,
    repro.engine.oracle,
    repro.engine.tables,
    repro.plan,
    repro.plan.planner,
    repro.rgx.parser,
    repro.rgx.semantics,
    repro.server.app,
    repro.server.client,
    repro.server.metrics,
    repro.server.protocol,
    repro.service,
    repro.service.backend,
    repro.service.cache,
    repro.service.corpus,
    repro.service.evaluate,
    repro.service.queryset,
    repro.spanner,
    repro.spans.document,
    repro.spans.span,
    repro.workloads.land_registry,
    repro.workloads.server_logs,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_doctests(module):
    failures, attempted = doctest.testmod(
        module, verbose=False, raise_on_error=False
    ).failed, doctest.testmod(module, verbose=False).attempted
    assert attempted > 0, f"{module.__name__} has no doctests"
    assert failures == 0
