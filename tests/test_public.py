"""The package's public names: each module's __all__ is the one list of
them, and nuttq re-exports exactly those lists."""

import os
import subprocess
import sys
from pathlib import Path

import nuttq
from nuttq import errors, nuttall, oracle, special, toronto

MODULES = (special, nuttall, toronto, oracle)
ERROR_CLASSES = sorted(name for name, value in vars(errors).items()
                       if isinstance(value, type) and issubclass(value, Exception))


def test_lazy_oracle_names_match_oracle_all():
    assert nuttq._ORACLE_NAMES == set(oracle.__all__)


def test_package_all_is_the_module_lists():
    want = ERROR_CLASSES + [name for module in MODULES for name in module.__all__]
    assert sorted(nuttq.__all__) == sorted(want + ["__version__"])
    assert len(set(nuttq.__all__)) == len(nuttq.__all__)
    for name in ERROR_CLASSES:
        assert getattr(nuttq, name) is getattr(errors, name)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(nuttq, name) is getattr(module, name), name


def test_dir_of_a_fresh_import():
    # a fresh interpreter, since importing nuttq.oracle or nuttq.cli adds
    # their module names to the package namespace
    src = Path(nuttq.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", "import nuttq; print('\\n'.join(dir(nuttq)))"],
        capture_output=True, text=True, env=env, check=True)
    module_attrs = {"__builtins__", "__cached__", "__doc__", "__file__",
                    "__loader__", "__name__", "__package__", "__path__",
                    "__spec__"}
    own = {"__all__", "__dir__", "__getattr__", "_ORACLE_NAMES",
           "errors", "nuttall", "special", "toronto"}
    assert proc.stdout.split() == sorted(set(nuttq.__all__) | module_attrs | own)
