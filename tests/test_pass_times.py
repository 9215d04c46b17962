"""Smoke test of ``tools/pass_times.py``: it records the orbit passes of the
torus-ladder invocations and times one."""

import importlib.util
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SPEC = importlib.util.spec_from_file_location("pass_times", ROOT / "tools" / "pass_times.py")
pass_times = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(pass_times)


def test_records_every_pass_and_times_one(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    passes = pass_times.record_passes(5)
    assert Path.cwd() == tmp_path
    seen = [(name, pass_times.describe(*args, **kwargs)) for name, fam, args, kwargs in passes]
    for want in [("exponents-schrodinger", "p=1 lanes=8x1024 n=1024"),
                 ("exponents-schrodinger", "p=2 lanes=8x1024 n=1024"),
                 ("exponents-trig3", "p=1 lanes=1x64 n=256"),
                 ("exponents-trig3", "p=2 lanes=1x64 n=256"),
                 ("exponents-trig3", "p=3 lanes=1x64 n=256"),
                 ("ldt", "p=1 lanes=1x2048 n=1024"),
                 ("rates", "p=1 lanes=1x1024 n=1024")]:
        assert want in seen
    assert {name for name, _ in seen} == {"exponents-schrodinger", "exponents-trig3", "holder",
                                          "ldt", "rates"}
    name, fam, args, kwargs = passes[seen.index(("exponents-trig3", "p=3 lanes=1x64 n=256"))]
    seconds, faults = pass_times.time_pass(fam, args, kwargs, 3)
    assert 0.0 < seconds < 10.0 and faults >= 0
    assert np.all(np.isfinite(fam.orbit_lognorms(*args, **kwargs)))
