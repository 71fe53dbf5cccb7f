"""``tools/digest.py``: equal code gives equal digests, and a comparison
names the components that differ, those only one line has, and a numpy
version difference."""

import importlib.util
import json
import time
from pathlib import Path

import numpy as np

TOOL = Path(__file__).resolve().parents[1] / "tools" / "digest.py"


def _tool():
    spec = importlib.util.spec_from_file_location("digest_tool", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_two_quick_runs_agree(tmp_path, capsys, cold_memos):
    # the first run starts with every process memo empty and fills them,
    # the second meets them warm: what the process keeps moves no bit
    tool = _tool()
    start = time.perf_counter()
    cold_memos()
    first, second = tool.digest(quick=True), tool.digest(quick=True)
    assert time.perf_counter() - start < 2.0
    assert first == second
    assert set(first) == {"calibration", "statistic", "coefficients",
                          "simulate", "references", "rules", "draws",
                          "asymptotic", "orders", "numpy", "quick"}
    assert first["numpy"] == np.__version__
    lines = {"same": first,
             "statistic": {**first, "statistic": "0" * 64},
             "older": {key: value for key, value in first.items()
                       if key not in ("asymptotic", "numpy")},
             "numpy": {**first, "numpy": "1.0.0"}}
    for name, line in lines.items():
        (tmp_path / name).write_text(json.dumps(line))

    def compare(name):
        code = tool.main(["--compare", str(tmp_path / "same"),
                          str(tmp_path / name)])
        return code, capsys.readouterr().out
    assert compare("same") == (0, "equal\n")
    assert compare("statistic") == (1, "statistic\n")
    # a line from before the asymptotic component and the version
    assert compare("older") == (1, "asymptotic (only in A)\nnumpy "
                                   f"{np.__version__} in A, unknown in B\n")
    # equal bits on two numpy versions are equal, and say so
    assert compare("numpy") == (0, f"equal\nnumpy {np.__version__} in A, "
                                   "1.0.0 in B\n")
