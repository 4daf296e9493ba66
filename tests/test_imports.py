"""Start-up cost guard: importing the CLI loads no module the program does not use.

Each set is read from a fresh interpreter and compared with what a bare
interpreter start already loads, since ``site`` may preload modules of its
own (``.pth`` files of installed packages).
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from arrowtips.catalog import Side, UnknownTipError, lookup

# The xml.sax.saxutils -> urllib.request chain, and difflib, which only a
# misspelled tip name needs.
UNUSED = ("xml.sax", "urllib.request", "http.client", "email", "ssl", "socket", "difflib")


def _loaded_modules(preamble: str) -> set[str]:
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    code = preamble + "import sys; print(*sys.modules)"
    child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                           text=True, check=True)
    return set(child.stdout.split())


def test_cli_import_loads_none_of_the_unused_modules():
    bare = _loaded_modules("")
    with_cli = _loaded_modules("import arrowtips.cli; ")
    assert "arrowtips.cli" in with_cli
    added = with_cli - bare
    unused = sorted(m for m in added if any(m == u or m.startswith(u + ".") for u in UNUSED))
    assert unused == []


def test_a_misspelled_tip_still_gets_close_matches():
    with pytest.raises(UnknownTipError, match="close matches: \"latex'\""):
        lookup("latexx", Side.END)
