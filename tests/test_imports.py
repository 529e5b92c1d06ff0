"""Import hygiene: every ``repro`` module imports on its own, and the
public API runs a program from a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: Imports each module from the state a fresh interpreter reaches once
#: ``repro/__init__`` has run (every import starts there), so an import
#: cycle fails the same way it would in a fresh interpreter.
EACH_MODULE = """
import importlib, pkgutil, sys
import repro

after_init = set(sys.modules)
names = sorted(
    m.name for m in pkgutil.walk_packages(repro.__path__, "repro.")
)
failed = []
for name in names:
    for loaded in [m for m in sys.modules if m not in after_init]:
        del sys.modules[loaded]
    try:
        importlib.import_module(name)
    except Exception as exc:
        failed.append(f"{name}: {exc!r}")
print(len(names))
print("\\n".join(failed))
"""

HELLO = """
from repro import VM, compile_source

src = 'class Main { static void main() { Sys.print("hello"); } }'
print(VM(compile_source(src)).run().output, end="")
"""


def _python(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, timeout=120,
    )


def test_every_module_imports_on_its_own():
    proc = _python(EACH_MODULE)
    assert proc.returncode == 0, proc.stderr
    count, _, failed = proc.stdout.partition("\n")
    assert int(count) > 100
    assert failed.strip() == ""


def test_hello_world_through_the_public_api():
    proc = _python(HELLO)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "hello\n"
