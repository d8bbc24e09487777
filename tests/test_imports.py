import os
import subprocess
import sys

import gravibar


def test_package_and_cli_load_no_scipy():
    # scipy is a test-only dependency: the reference operators live in the
    # tests, and the package runs on numpy alone
    src = os.path.dirname(os.path.dirname(gravibar.__file__))
    code = (
        "import gravibar, gravibar.cli, sys; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"
