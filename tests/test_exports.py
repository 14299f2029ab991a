"""Every name a module exports in ``__all__`` exists."""

import importlib
import pkgutil

import pytest

import gaussqt

MODULES = ["gaussqt"] + [
    f"gaussqt.{m.name}" for m in pkgutil.iter_modules(gaussqt.__path__) if m.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def test_one_constructor_per_family():
    # the spec-object wrappers stay in gaussqt.resources only
    for name in ("tmst_covmat", "bs_covmat"):
        assert name in gaussqt.__all__
    for name in ("TmstSpec", "BsSpec", "tmst", "bs_resource", "report_to_json"):
        assert name not in gaussqt.__all__ and not hasattr(gaussqt, name)
