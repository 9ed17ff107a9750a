"""The benchmark's reference arithmetic (perfbench/refarith.py, which does
not import the package) reproduces the paper's pinned values."""

import importlib.util
from pathlib import Path

REFARITH = Path(__file__).resolve().parent.parent / "perfbench" / "refarith.py"


def test_refarith_self_test():
    spec = importlib.util.spec_from_file_location("refarith_under_test", REFARITH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.self_test() == []
