"""Start-up pays only for what the question uses: each test runs a fresh
interpreter and reads which modules it loaded, never how long it took."""

import json
import os
import subprocess
import sys
import textwrap

import pytest

import qmarginal

SRC = os.path.dirname(os.path.dirname(qmarginal.__file__))
LIBRARY_MODULES = ["qmarginal.bounds", "qmarginal.classical", "qmarginal.feasibility",
                   "qmarginal.tensor", "qmarginal.uniqueness"]


def fresh(script: str):
    """Run ``script`` in a new interpreter; return the JSON it prints last."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(script)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_loads_no_numpy_and_no_library_module():
    loaded = fresh("""
        import json, sys
        import qmarginal
        assert not hasattr(qmarginal, "__wrapped__")
        print(json.dumps(sorted(sys.modules)))
    """)
    assert "numpy" not in loaded
    assert not set(LIBRARY_MODULES) & set(loaded)


@pytest.mark.parametrize("argv,code", [
    (["bounds", "--d", "2", "--n", "40"], 0),
    (["--help"], 0),
    (["bounds", "--help"], 0),
    (["bounds"], 1),
    (["bounds", "--d", "2:x"], 1),
    (["frobnicate"], 1),
    (["check", "--n", "3", "--d", "2", "--seed", "-1"], 1),
], ids=["bounds", "help", "bounds-help", "bounds-no-d", "bounds-bad-range", "unknown",
        "negative-seed"])
def test_cli_answers_without_numpy(argv, code):
    got = fresh(f"""
        import contextlib, io, json, sys
        from qmarginal.cli import main
        with contextlib.redirect_stdout(io.StringIO()), \\
                contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main({argv!r})
            except SystemExit as exc:  # argparse's --help
                code = exc.code
        print(json.dumps({{"code": code, "numpy": "numpy" in sys.modules}}))
    """)
    assert got == {"code": code, "numpy": False}


def test_star_import_binds_exactly_all():
    got = fresh("""
        import json
        import qmarginal
        namespace = {}
        exec("from qmarginal import *", namespace)
        print(json.dumps({"star": sorted(set(namespace) - {"__builtins__"}),
                          "all": sorted(qmarginal.__all__)}))
    """)
    assert len(got["all"]) == 49
    assert got["star"] == got["all"]


def test_dir_lists_every_public_name():
    names = fresh("""
        import json
        import qmarginal
        print(json.dumps(dir(qmarginal)))
    """)
    assert set(qmarginal.__all__) <= set(names)


def test_submodule_lookup_loads_that_module_alone():
    loaded = fresh("""
        import json, sys
        from qmarginal import bounds
        print(json.dumps(sorted(sys.modules)))
    """)
    assert "qmarginal.bounds" in loaded and "numpy" not in loaded
    assert not set(LIBRARY_MODULES[1:]) & set(loaded)
