"""``scripts/differential.py``, loaded by path, on a few arrows."""

import re
import sys

GALLERY_SHA256 = "9bba20eb00c69b9e6e7da9ac7dff978bfc86230fd9c9a444441c8d8fc65f6370"


def test_it_prints_one_named_digest_per_line_and_the_pinned_gallery(differential, monkeypatch, capsys):
    monkeypatch.setattr(differential, "ARROWS", 5)
    assert differential.main(["--seeds", "1-2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["gallery", "curves", "floats", "tips"]
    assert all(re.fullmatch("[0-9a-f]{64}", line.split()[-1]) for line in lines)
    assert lines[0] == f"gallery {GALLERY_SHA256}"
    assert lines[1].startswith("curves 1-2 ")


def test_loading_it_leaves_the_import_path_alone(differential):
    assert str(differential.ROOT / "perfbench") not in sys.path
