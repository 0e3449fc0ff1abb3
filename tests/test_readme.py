"""The README's Library and CLI examples run against the current API."""

import contextlib
import io
import json
import re
import shlex
from pathlib import Path

from topo_thermo.cli import EXIT_OK, assemble_config, cli_main

README = Path(__file__).resolve().parent.parent / "README.md"


def section(title: str) -> str:
    """The text of one `## ` section of the README."""
    return README.read_text().split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def code_blocks(title: str, language: str) -> list[str]:
    """The `language` code blocks of one section, in order."""
    pattern = rf"^```{language}\n(.*?)^```$"
    return re.findall(pattern, section(title), flags=re.MULTILINE | re.DOTALL)


def test_library_examples_run():
    blocks = code_blocks("Library", "python")
    assert len(blocks) >= 2
    namespace = {}
    # Later blocks build on the names of earlier ones, as a reader would run them.
    with contextlib.redirect_stdout(io.StringIO()):
        for index, block in enumerate(blocks):
            exec(compile(block, f"README.md Library block {index}", "exec"), namespace)


def test_cli_examples_run(tmp_path, monkeypatch, capsys):
    # The CLI section's first JSON block is the sweep.json its sweep line reads.
    config, _ = code_blocks("CLI", "json")
    (commands,) = code_blocks("CLI", "sh")
    lines = [shlex.split(line) for line in commands.splitlines() if line.strip()]
    assert lines and all(line[0] == "topo-thermo" for line in lines)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sweep.json").write_text(config)
    for line in lines:
        assert cli_main(line[1:]) == EXIT_OK, " ".join(line)
        capsys.readouterr()


def test_open_boundary_recipe_is_figure_3a_on_an_open_chain(tmp_path, capsys):
    # The CLI section's second JSON block: figure 3a's sweep on an open chain.
    _, recipe = code_blocks("CLI", "json")
    config = json.loads(recipe)
    assert assemble_config("sweep", {}, config).boundary == "open"
    ring = tmp_path / "ring.json"
    ring.write_text(json.dumps(dict(config, boundary="periodic")))
    assert cli_main(["figure", "3a"]) == EXIT_OK
    figure = capsys.readouterr().out
    assert cli_main(["sweep", "--config", str(ring)]) == EXIT_OK
    assert capsys.readouterr().out == figure
