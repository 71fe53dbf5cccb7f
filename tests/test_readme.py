"""The README's Python examples run as written."""

import re
import warnings
from pathlib import Path

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
