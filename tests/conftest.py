import argparse

import pytest


@pytest.fixture
def built_parsers(monkeypatch):
    """Every `argparse.ArgumentParser` constructed while the test runs, in order."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    return built
