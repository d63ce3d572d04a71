"""The CLI corpus of tools/output_hashes.py runs to the end on this tree, and
every invocation in it ends in a documented exit code, never an uncaught
exception."""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_corpus_line_ends_in_a_documented_exit():
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "output_hashes.py"), "--src", str(ROOT / "src")],
        capture_output=True, text=True, timeout=300, check=False,
    )
    assert done.returncode == 0, done.stderr
    lines = [json.loads(line) for line in done.stdout.splitlines()]
    assert lines
    undocumented = [(line["argv"], line["exit"]) for line in lines if line["exit"] not in (0, 1, 2, 3)]
    assert undocumented == []
