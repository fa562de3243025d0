"""Start-up: each command loads only the modules it runs.

A fresh interpreter without cached bytecode compiles every module it imports,
and that compile time is paid on every start of the CLI.  `validate` and
`integrability` never run `paracomplex.curv`, so they must not load it, and no
command may load `dataclasses` (it pulls in `inspect`, `ast`, `dis` and
`tokenize`).  Each check runs in its own subprocess with
PYTHONDONTWRITEBYTECODE=1 and compares the modules loaded before and after.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import paracomplex
from paracomplex.cli import main

SRC = Path(paracomplex.__file__).resolve().parent.parent

# the modules loaded by `import paracomplex.cli` and by main(argv), as a JSON
# line on stderr, next to main's exit code; the report goes to stdout
PROBE = """
import sys
before = set(sys.modules)
from paracomplex.cli import main
imported = set(sys.modules) - before
code = main(sys.argv[1:]) if len(sys.argv) > 1 else None
ran = set(sys.modules) - before
import json
sys.stderr.write(json.dumps({"code": code, "imported": sorted(imported), "ran": sorted(ran)}))
"""

OMEGA = {"kind": "omega", "omega": {"1,2": "1+x3^2", "3,4": "x1", "1,3": "x2*x4", "2,4": "x3"}}


def probe(*argv):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", PROBE, *argv], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    info = json.loads(proc.stderr)
    return info["code"], set(info["imported"]), set(info["ran"]), proc.stdout


def test_importing_the_cli_loads_neither_curv_nor_dataclasses():
    _, imported, _, _ = probe()
    assert "paracomplex.cli" in imported
    assert "paracomplex.curv" not in imported
    assert "dataclasses" not in imported


@pytest.mark.parametrize("command", ["validate", "integrability"])
def test_structure_commands_load_no_curv(tmp_path, capsys, command):
    """A `validate` and an `integrability` run on an omega descriptor, in a
    fresh process, load neither `curv` nor `dataclasses`, and print the
    report that main gives in process."""
    path = tmp_path / "omega.json"
    path.write_text(json.dumps(OMEGA))
    code, _, ran, out = probe(command, str(path))
    assert "paracomplex.curv" not in ran and "dataclasses" not in ran
    assert (code, out) == (main([command, str(path)]), capsys.readouterr().out)


def test_theorem_loads_curv_and_gives_its_report(capsys):
    """`theorem` imports `curv` inside the command, and its report in a fresh
    process is the one main gives in process (pinned in test_report_bytes)."""
    argv = ["theorem", "constcurv:1", "--component=+-"]
    code, imported, ran, out = probe(*argv)
    assert "paracomplex.curv" not in imported and "paracomplex.curv" in ran
    assert "dataclasses" not in ran
    assert (code, out) == (main(argv), capsys.readouterr().out)
