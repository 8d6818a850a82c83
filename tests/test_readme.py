"""The README's Library example runs, and its CLI examples parse, against the
package as documented."""
import os
import re
import shlex

from rabispec.cli import build_parser

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "README.md")


def _section(title):
    with open(README) as f:
        text = f.read()
    return text[text.index(title):]


def test_readme_library_block_runs(capsys):
    block = re.search(r"```python\n(.*?)```", _section("## Library"), re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines and lines[-1].startswith("0.58309518948")


def test_readme_cli_block_parses():
    block = re.search(r"```bash\n(.*?)```", _section("## CLI"), re.S).group(1)
    commands = [ln for ln in block.replace("\\\n", " ").splitlines()
                if ln.startswith("rabispec ")]
    assert len(commands) == 7
    parser = build_parser()
    for line in commands:
        parser.parse_args(shlex.split(line)[1:])
