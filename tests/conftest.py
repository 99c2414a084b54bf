import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--runslow", action="store_true", default=False,
        help="run tests marked slow (exhaustive checks over small graphs "
             "and timing bounds of the solver)",
    )


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: long-running exhaustive checks and timing bounds")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--runslow"):
        return
    skip = pytest.mark.skip(reason="needs --runslow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)
