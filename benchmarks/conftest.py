"""Shared benchmark fixtures: datasets and mediators at several scales.

All fixtures are session-scoped — datasets are deterministic and
read-only, so one instance per size serves every benchmark.
"""

from __future__ import annotations

import pytest

from repro import Mediator, O2Wrapper, WaisWrapper
from repro.datasets import CulturalDataset, VIEW1_YAT


def make_mediator(database, store) -> Mediator:
    mediator = Mediator()
    mediator.connect(O2Wrapper("o2artifact", database))
    mediator.connect(WaisWrapper("xmlartwork", store))
    mediator.declare_containment("artworks", "artifacts")
    mediator.load_program(VIEW1_YAT)
    return mediator


@pytest.fixture(scope="session")
def sources_small():
    return CulturalDataset(n_artifacts=25, seed=1).build()


@pytest.fixture(scope="session")
def sources_medium():
    return CulturalDataset(n_artifacts=100, seed=1).build()


@pytest.fixture(scope="session")
def sources_large():
    return CulturalDataset(n_artifacts=400, seed=1).build()


@pytest.fixture(scope="session")
def mediator_small(sources_small):
    return make_mediator(*sources_small)


@pytest.fixture(scope="session")
def mediator_medium(sources_medium):
    return make_mediator(*sources_medium)


@pytest.fixture(scope="session")
def mediator_large(sources_large):
    return make_mediator(*sources_large)
