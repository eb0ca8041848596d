import os
import shutil
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))


@pytest.fixture
def workdir(request):
    """A temporary directory inside the benchmark's ignored output directory."""
    path = BENCH_DIR / "out" / f"test-{os.getpid()}-{request.node.name}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)
