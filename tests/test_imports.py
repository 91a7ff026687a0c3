import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).parent.parent / "src"


def test_import_leaves_heavy_scipy_modules_unloaded():
    # scipy.stats and scipy.signal cost about a second of import time
    # between them; the package needs neither
    code = ("import sys, levypricer; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[:2] in (['scipy', 'stats'], ['scipy', 'signal'])))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
