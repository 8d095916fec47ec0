"""``tools/audit.py`` on a toy package: what it reaches, what never varies."""

import runpy
import sys
from pathlib import Path

AUDIT = runpy.run_path(str(Path(__file__).resolve().parents[1] / "tools" / "audit.py"))

TOY = '''
from dataclasses import dataclass


def used(a, b=1, c=2):
    return a


def unused():
    pass


def child(x, y=3):
    return x


class K:
    def m(self, x=None):
        return x


@dataclass
class Config:
    size: int = 1
    name: str = "a"
'''

DRIVER = '''
import subprocess, sys
import toymod

toymod.used(0, b=5)
toymod.K().m()
toymod.Config(size=2)
subprocess.run([sys.executable, "-c", "import toymod; toymod.child(1)"], check=True)
'''


def test_reach_and_fixed_parameters_cover_subprocesses(tmp_path, monkeypatch):
    toy, out = tmp_path / "toy", tmp_path / "out"
    toy.mkdir()
    (toy / "toymod.py").write_text(TOY)
    (tmp_path / "drive.py").write_text(DRIVER)
    monkeypatch.setenv("PYTHONPATH", str(toy))
    assert AUDIT["run"](str(out), [sys.executable, str(tmp_path / "drive.py")], root=toy) == 0
    lines = AUDIT["report"](str(out), root=toy).splitlines()
    assert lines[:2] == ["functions never reached (1):", "  toymod.py:9 unused"]
    assert lines[2] == "parameters never given a non-default value (4):"
    assert sorted(line.split()[-1] for line in lines[3:]) == [
        "Config.__init__(name)", "K.m(x)", "child(y)", "used(c)",
    ]
