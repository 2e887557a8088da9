import pytest

from sea_l1ac import benchmark_params, build_nominal_model, build_rrc_gains


@pytest.fixture(scope="session")
def params():
    return benchmark_params()


@pytest.fixture(scope="session")
def gains(params):
    return build_rrc_gains(params)


@pytest.fixture(scope="session")
def model(params):
    return build_nominal_model(params)
