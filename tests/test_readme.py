"""README's CLI section agrees with the CLI.

Every command in the `## CLI` code block runs and exits 0, and the suites
that the "Suites:" sentence names are the ones `--suite` accepts.
"""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from quatype.verify import SUITE_NAMES

ROOT = Path(__file__).resolve().parent.parent
CLI_SECTION = (ROOT / "README.md").read_text(encoding="utf-8").split("\n## CLI\n")[1]


def _cli_commands():
    block = re.search(r"```sh\n(.*?)```", CLI_SECTION, re.S).group(1)
    return [shlex.split(line, comments=True) for line in block.splitlines()]


@pytest.mark.parametrize("argv", _cli_commands(), ids=" ".join)
def test_readme_cli_command_exits_0(argv):
    assert argv[0] == "quatype"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    r = subprocess.run([sys.executable, "-m", "quatype", *argv[1:]], env=env,
                       capture_output=True, text=True, timeout=300)
    assert r.returncode == 0, r.stderr


def test_readme_suites_sentence_names_every_suite():
    sentence = CLI_SECTION.split("Suites:")[1].split("Defaults:")[0]
    assert set(re.findall(r"`([^`]+)`", sentence)) == set(SUITE_NAMES)
