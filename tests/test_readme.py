"""The README's examples run as written and state what the code does."""

import json
import re
import warnings
from pathlib import Path

from deconvtest.cli import CSV_HEADER, main

README = Path(__file__).parents[1] / "README.md"


def test_readme_python_examples_run():
    # every ```python block, in order, each in a fresh namespace; a warning
    # is an error, so a deprecated or failing call cannot hide in the docs
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(),
                        flags=re.M | re.S)
    assert blocks
    for i, source in enumerate(blocks):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            exec(compile(source, f"{README.name} python block {i}", "exec"),
                 {"__name__": "readme_example"})


def test_readme_configuration_reads_back(tmp_path, capsys):
    # the ```json block is a whole configuration document
    (block,) = re.findall(r"^```json\n(.*?)^```", README.read_text(),
                          flags=re.M | re.S)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(block)
    assert main(["coeffs", "--kmax", "3", "--config", str(cfg)]) == 0
    assert json.loads(capsys.readouterr().out)["k"] == 3


def test_readme_csv_header_is_the_cli_header():
    (header,) = re.findall(r"CSV with header\s+`([^`]+)`", README.read_text())
    assert header == CSV_HEADER
