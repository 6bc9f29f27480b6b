"""Every demo prints the stdout committed in tests/data/demo_stdout.

The demos run in a copy of demos/ beside a copy of the synth50 fixture,
so demo 06 writes its outputs into the copy, not into the checkout; the
copy's path is masked as <tmp> in what they print.
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
GOLDEN = REPO_ROOT / "tests" / "data" / "demo_stdout"
DEMOS = sorted(path.name for path in (REPO_ROOT / "demos").glob("0*.py"))


@pytest.fixture(scope="module")
def demo_copy(tmp_path_factory):
    root = tmp_path_factory.mktemp("demo_copy").resolve()
    shutil.copytree(REPO_ROOT / "demos", root / "demos", ignore=shutil.ignore_patterns("out"))
    (root / "tests" / "data").mkdir(parents=True)
    shutil.copy(REPO_ROOT / "tests" / "data" / "synth50.libsvm", root / "tests" / "data")
    return root


def test_every_demo_has_a_golden_stdout():
    assert len(DEMOS) == 6
    assert sorted(path.stem for path in GOLDEN.glob("*.txt")) == [Path(d).stem for d in DEMOS]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_prints_its_golden_stdout(demo_copy, cli_env, demo):
    proc = subprocess.run([sys.executable, str(demo_copy / "demos" / demo)], cwd=demo_copy,
                          capture_output=True, text=True, env=cli_env)
    assert proc.returncode == 0, proc.stderr
    golden = (GOLDEN / f"{Path(demo).stem}.txt").read_text(encoding="utf-8")
    assert proc.stdout.replace(str(demo_copy), "<tmp>") == golden
