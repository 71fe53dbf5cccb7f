"""``tools/digest.py``: equal code gives equal digests, and a comparison
names the components that differ."""

import importlib.util
import json
import time
from pathlib import Path

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
                          "simulate", "references", "rules", "draws", "quick"}
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(first))
    b.write_text(json.dumps({**first, "statistic": "0" * 64}))
    assert tool.main(["--compare", str(a), str(a)]) == 0
    assert capsys.readouterr().out == "equal\n"
    assert tool.main(["--compare", str(a), str(b)]) == 1
    assert capsys.readouterr().out == "statistic\n"
