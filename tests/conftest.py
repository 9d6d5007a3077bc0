import io
import subprocess
import sys
from pathlib import Path

import numpy as np

import serieslab

SRC = Path(serieslab.__file__).resolve().parents[1]


def read_csv(path):
    """Load one of the lab's CSV artifacts: skip '#' metadata lines, return
    a dict column_name -> float array (nan for empty cells)."""
    lines = [ln for ln in open(path, encoding="utf-8")
             if ln.strip() and not ln.startswith("#")]
    names = lines[0].strip().split(",")
    cleaned = "\n".join(
        ",".join(cell if cell != "" else "nan" for cell in ln.strip().split(","))
        for ln in lines[1:]
    )
    data = np.loadtxt(io.StringIO(cleaned), delimiter=",", ndmin=2)
    return {name: data[:, i] for i, name in enumerate(names)}


def run_in_child(code, timeout=30):
    """Run ``code`` in a fresh Python with the package and the tests on its
    path and return its stdout.  A hang fails the test after ``timeout``
    seconds, when the child is killed, instead of stalling the suite."""
    paths = [str(SRC), str(Path(__file__).parent)]
    done = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path[:0] = {paths!r}\n" + code],
        capture_output=True, text=True, timeout=timeout, check=False)
    assert done.returncode == 0, done.stderr
    return done.stdout
