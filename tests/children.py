"""Child interpreters for the tests.

Every child runs the interpreter that runs the suite, under ``ENV``, which
puts the copy of the package that this process imported (``src``, or an
installed copy) and the test helpers beside this file first on
``PYTHONPATH``. So a child tests the same package as the suite, whatever
``PYTHONPATH`` the suite itself was started with. A test that needs more
of the environment layers its changes on ``ENV``.
"""

import os
import subprocess
import sys
from pathlib import Path

import strictcluster

PYTHON = sys.executable
PACKAGE_ROOT = Path(strictcluster.__file__).resolve().parents[1]
ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(map(str, (PACKAGE_ROOT, Path(__file__).resolve().parent))),
}


def run_python(code, *args, **kwargs):
    """The finished child that ran ``code`` with ``args`` as its argv; text
    output captured."""
    return subprocess.run(
        [PYTHON, "-c", code, *map(str, args)],
        capture_output=True,
        text=True,
        timeout=60,
        env=ENV,
        **kwargs,
    )
