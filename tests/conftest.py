"""Shared session fixtures: models, geometries, coverings and censuses.

Everything expensive is built once per session.  The q=8 full census is the
dominant cost and is only constructed when a test actually requests it.
"""

import pytest

from quadcover.gf2n import FieldCtx
from quadcover.quadric import build_model
from quadcover.ovoid import build_geometry
from quadcover.covering import canonical_covering
from quadcover.cliquecensus import build_tangency_graph, census
from tangency_oracle import tangency_matrix


@pytest.fixture(scope="session")
def model_q2():
    return build_model(FieldCtx(1))


@pytest.fixture(scope="session")
def model_q4():
    return build_model(FieldCtx(2))


@pytest.fixture(scope="session")
def model_q8():
    return build_model(FieldCtx(3))


@pytest.fixture(scope="session")
def geom_q2(model_q2):
    return build_geometry(model_q2)


@pytest.fixture(scope="session")
def geom_q4(model_q4):
    return build_geometry(model_q4)


@pytest.fixture(scope="session")
def geom_q8(model_q8):
    return build_geometry(model_q8)


@pytest.fixture(scope="session")
def cov_q2(model_q2, geom_q2):
    return canonical_covering(model_q2, geom_q2)


@pytest.fixture(scope="session")
def cov_q4(model_q4, geom_q4):
    return canonical_covering(model_q4, geom_q4)


@pytest.fixture(scope="session")
def cov_q8(model_q8, geom_q8):
    return canonical_covering(model_q8, geom_q8)


@pytest.fixture(scope="session")
def tg_q2(geom_q2):
    return build_tangency_graph(geom_q2)


@pytest.fixture(scope="session")
def tg_q4(geom_q4):
    return build_tangency_graph(geom_q4)


@pytest.fixture(scope="session")
def tg_q8(geom_q8):
    return build_tangency_graph(geom_q8)


# the tangency as a boolean matrix, for the oracles and the corruptions
@pytest.fixture(scope="session")
def adj_q2(geom_q2):
    return tangency_matrix(geom_q2)


@pytest.fixture(scope="session")
def adj_q4(geom_q4):
    return tangency_matrix(geom_q4)


@pytest.fixture(scope="session")
def adj_q8(geom_q8):
    return tangency_matrix(geom_q8)


@pytest.fixture(scope="session")
def census_q2(tg_q2, geom_q2):
    return census(tg_q2, geom_q2, collect=True)


@pytest.fixture(scope="session")
def census_q4(tg_q4, geom_q4):
    return census(tg_q4, geom_q4, collect=True)


@pytest.fixture(scope="session")
def census_q8_sampled(tg_q8, geom_q8):
    # small seeded sample with collected cliques, for figure-level tests
    return census(tg_q8, geom_q8, mode="sampled", seed=1, n_samples=4000,
                  collect=True)
