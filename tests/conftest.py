import importlib.resources

import pytest

import tptg


@pytest.fixture(scope="session")
def fig1_text() -> str:
    return (
        importlib.resources.files("tptg") / "models" / "fig1.tptg"
    ).read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def fig1_source(fig1_text):
    return tptg.parse(fig1_text)


@pytest.fixture(scope="session")
def fig1_model(fig1_source):
    return tptg.to_tptg(fig1_source)


@pytest.fixture(scope="session")
def fig1_game(fig1_model):
    return tptg.build(fig1_model)


@pytest.fixture(scope="session")
def taskgraph_k1_p1():
    model = tptg.gen_taskgraph(1, 1, 1)
    game = tptg.build(model, price="time")
    return model, game


@pytest.fixture
def one_chunk(monkeypatch):
    """A sweep's rows run as one chunk in the calling process, so that a hook
    there sees every row: in a forked chunk, a hook counts in the child."""
    from tptg import cli

    monkeypatch.setattr(cli, "_chunks", lambda rows: [rows] if rows else [])
