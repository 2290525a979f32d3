"""A fresh interpreter decodes on a local backend without the HTTP stack."""
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import contextlib, io, pkgutil, sys
from importlib import import_module, resources

import sketchdec, sketchdec.cli, sketchdec.tasks

for info in pkgutil.iter_modules(sketchdec.tasks.__path__):
    import_module(f"sketchdec.tasks.{info.name}")
data = resources.files("sketchdec.data")
argv = ["decode", "--sketch", str(data / "list4.json"),
        "--backend", f"table:{data / 'fig1_table.json'}"]
with contextlib.redirect_stdout(io.StringIO()) as out:
    assert sketchdec.cli.entrypoint(argv) == 0
assert out.getvalue().startswith("- "), out.getvalue()
loaded = {"requests", "urllib3"} & set(sys.modules)
assert not loaded, loaded

assert sketchdec.RemoteCompletionsLM is sketchdec.remote.RemoteCompletionsLM
assert "RemoteCompletionsLM" in dir(sketchdec)
namespace = {}
exec("from sketchdec import *", namespace)
assert namespace["RemoteCompletionsLM"] is sketchdec.RemoteCompletionsLM
try:
    sketchdec.no_such_name
except AttributeError as e:
    assert "'sketchdec'" in str(e) and "no_such_name" in str(e), e
else:
    raise AssertionError("sketchdec.no_such_name resolved")
print("ok")
"""


def test_local_decode_leaves_the_http_stack_unimported():
    done = subprocess.run(
        [sys.executable, "-c", PROBE],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "ok\n"
