"""Smoke test of ``tools/output_digest.py``: the digests of a workload's
data files do not depend on the directory the tool is run from."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = importlib.util.spec_from_file_location("output_digest", ROOT / "tools" / "output_digest.py")
output_digest = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(output_digest)


def test_digests_do_not_depend_on_the_working_directory(tmp_path, monkeypatch):
    runs = []
    for cwd in (tmp_path, tmp_path / "a" / "much" / "deeper" / "directory"):
        cwd.mkdir(parents=True, exist_ok=True)
        monkeypatch.chdir(cwd)
        runs.append(output_digest.digests("random-streams", 5))
        assert Path.cwd() == cwd
    assert runs[0] == runs[1]
    assert list(runs[0]) == ["stretch-or-rotate", "single", "two-rotations", "file3"]
    assert all(code == 0 for code, _ in runs[0].values())
    assert len(set(runs[0].values())) == 4  # every invocation wrote its own files
