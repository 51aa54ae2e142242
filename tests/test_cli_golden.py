"""Golden CLI runs: exit code, stdout and every file written under --out.

Each command line runs in its own empty directory with the relative
``--out o``, so the witness paths in the records are stable.  Files are
pinned by their SHA-256, stdout verbatim.  After a deliberate output
change, rewrite the golden data with

    PYTHONPATH=src python tests/test_cli_golden.py

and review the diff of tests/golden/cli.json.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from sqgraphs.cli import main

GOLDEN = Path(__file__).parent / "golden" / "cli.json"

COMMANDS = [
    "expi 4 4 15 --out o",
    "expi 5 4 15 --out o",
    "expi 6 4 15 --out o",
    "exsum 5 4 15 --out o",
    "exsum 6 4 15 --out o",
    "exsum 7 4 15 --out o",
    "expi 6 4 15 --budget 40 --out o",
    "count 4 4 3",
    "count 4 2 2 --format csv",
    "construct 2 2 1 5 --out o",
    "construct 2 3 1 150 --out o",
    "iterate --a 3 --level 2,1 --level 2,1 --sizes 4,5 --sizes 2,2 --out o",
    "iterate --a 2 --level 2,1 --sizes 1,0 --out o",
    "formulas",
    "formulas --format csv",
    "verify conditions --out o",
    "verify identities --amax 3 --rmax 3 --out o",
    "verify transformations --trials 50 --out o",
    "verify counting --n 4 --out o",
    "verify counting --n 4..5 --format csv --out o",
    "verify conjecture --n 4..5 --out o",
    "verify conjecture --n 6 --budget 10 --out o",
    "verify counting --n 6 --budget 1000 --out o",
    "verify identities --out o",
]


def run_in(directory: Path, command: str) -> dict:
    """Run one command line in ``directory``; return its exit code, stdout and files."""
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        out = StringIO()
        with redirect_stdout(out):
            code = main(command.split())
        files = {
            path.as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(Path("o").rglob("*"))
            if path.is_file()
        }
    finally:
        os.chdir(cwd)
    return {"exit": code, "stdout": out.getvalue(), "files": files}


@pytest.mark.parametrize("command", COMMANDS)
def test_cli_output_is_golden(tmp_path, command):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))[command]
    assert run_in(tmp_path, command) == expected


if __name__ == "__main__":
    import tempfile

    golden = {}
    for command in COMMANDS:
        with tempfile.TemporaryDirectory() as tmp:
            golden[command] = run_in(Path(tmp), command)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(golden)} commands to {GOLDEN}", file=sys.stderr)
