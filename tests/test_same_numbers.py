"""The report lines of tools/same_numbers.py, on small handmade outputs."""

import importlib.util
import pathlib

import numpy as np
import pytest

from cev2 import ParamStore, Tensor, save_checkpoint

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "same_numbers.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("same_numbers", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def checkpoint(path, bias) -> str:
    store = ParamStore()
    store.register("conv.w", Tensor(np.arange(6.0).reshape(1, 2, 3, 1)))
    store.register("conv.b", Tensor(np.array(bias).reshape(1, 2, 1, 1)))
    save_checkpoint(str(path), store)
    return str(path)


def test_checkpoints_that_differ_in_one_entry_name_it_and_its_largest_difference(
        tool, tmp_path):
    a = checkpoint(tmp_path / "a.cev2", [0.5, -1.0])
    b = checkpoint(tmp_path / "b.cev2", [0.5, -1.25])
    assert tool.checkpoint_report(a, a) == "identical"
    assert tool.checkpoint_report(a, b) == "1 of 2 entries differ, largest |diff|: conv.b 0.25"


def test_text_and_gradcheck_reports_name_what_changed(tool):
    assert tool.lines_report("a\nb\n", "a\nb\n") == "identical"
    assert tool.lines_report("a\nb\n", "a\nc\nd\n") == "line 2: 'b' -> 'c'; 2 lines -> 3"
    errs = [["conv wrt x", 1e-7], ["bn wrt gamma", 2e-6]]
    assert tool.gradcheck_report(errs, errs) == "identical"
    assert (tool.gradcheck_report(errs, [["conv wrt x", 1e-7], ["bn wrt gamma", 3e-6]])
            == "bn wrt gamma: 2e-06 -> 3e-06")
