"""The Python examples of README.md run as written."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_the_readme_python_blocks_run_in_order():
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", text, re.M | re.S)
    assert blocks and len(blocks) == text.count("```python")
    namespace = {}  # a later block uses the names an earlier one made, as a reader's session does
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
