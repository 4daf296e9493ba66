"""Start-up cost guard: importing the CLI loads no module the program does not use.

Each set is read from a fresh interpreter and compared with what a bare
interpreter start already loads, since ``site`` may preload modules of its
own (``.pth`` files of installed packages).
"""

import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

from arrowtips.catalog import Side, UnknownTipError, lookup

# The xml.sax.saxutils -> urllib.request chain; difflib, which only a
# misspelled tip name needs; and dataclasses, with the inspect it loads, which
# arrowtips loads only to raise FrozenInstanceError on a write to a record.
UNUSED = ("xml.sax", "urllib.request", "http.client", "email", "ssl", "socket", "difflib",
          "dataclasses", "inspect")


def _fresh_stdout(code: str) -> str:
    """What ``code`` prints in a fresh interpreter that imports this checkout's arrowtips."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                           text=True, check=True)
    return child.stdout


def _loaded_modules(preamble: str) -> set[str]:
    return set(_fresh_stdout(preamble + "import sys; print(*sys.modules)").split())


def _unused(modules: set[str]) -> list[str]:
    return sorted(m for m in modules if any(m == u or m.startswith(u + ".") for u in UNUSED))


def test_cli_import_loads_none_of_the_unused_modules():
    bare = _loaded_modules("")
    with_cli = _loaded_modules("import arrowtips.cli; ")
    assert "arrowtips.cli" in with_cli
    assert _unused(with_cli - bare) == []


@pytest.mark.parametrize("argv, code", [
    (["render", "--spec", "[-latex'", "--path", "M 0,0 C 30,40 70,40 100,0"], 0),
    (["extents", "--tip", "latex'", "--width", "1"], 0),
    (["gallery"], 0),
    (["render", "--spec", "-]", "--path", "M 0,0 L 1e308,0", "--width", "8e307"], 2),
], ids=["render", "extents", "gallery", "render-overflow"])
def test_a_cli_run_loads_none_of_the_unused_modules(tmp_path, argv, code):
    if argv[0] != "extents":
        argv = [*argv, "--out", str(tmp_path / "out.svg")]
    # The last line: main's exit code, then every module loaded by the end of the run.
    lines = _fresh_stdout(f"import sys; from arrowtips.cli import main; "
                          f"print(main({argv!r}), *sys.modules)").splitlines()
    status, *loaded = lines[-1].split()
    assert int(status) == code
    assert _unused(set(loaded) - _loaded_modules("")) == []


def test_a_misspelled_tip_still_gets_close_matches():
    with pytest.raises(UnknownTipError, match="close matches: \"latex'\""):
        lookup("latexx", Side.END)


def test_the_attach_submodule_is_not_shadowed_by_its_function():
    import arrowtips.attach as module

    assert isinstance(module, types.ModuleType)
    assert hasattr(module, "_GL_NODES")


def test_cli_import_creates_no_dataclass():
    # A dataclass costs about 0.8 ms to create; every record derives from
    # arrowtips._record.Record instead.
    code = ("import sys, arrowtips.cli; print(*sorted(value.__qualname__"
            " for name, module in list(sys.modules.items()) if name.startswith('arrowtips')"
            " for value in vars(module).values() if isinstance(value, type)"
            " and value.__module__ == name and '__dataclass_params__' in vars(value)))")
    assert _fresh_stdout(code).split() == []
