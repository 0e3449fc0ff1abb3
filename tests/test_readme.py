"""The README's Library examples run against the current API."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_blocks():
    """The python code blocks of the `## Library` section, in order."""
    text = README.read_text()
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^```python\n(.*?)^```$", section, flags=re.MULTILINE | re.DOTALL)


def test_library_examples_run():
    blocks = library_blocks()
    assert len(blocks) >= 2
    namespace = {}
    # Later blocks build on the names of earlier ones, as a reader would run them.
    with contextlib.redirect_stdout(io.StringIO()):
        for index, block in enumerate(blocks):
            exec(compile(block, f"README.md Library block {index}", "exec"), namespace)
