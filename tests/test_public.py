"""The package's public names: each module's __all__ is the one list of
them, and nuttq re-exports exactly those lists.  Also the contracts of the
public records: frozen, slotted dataclasses with a pinned repr."""

import dataclasses
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nuttq
from nuttq import errors, nuttall, oracle, special, toronto
from nuttq.nuttall import NuttallParams
from nuttq.special import BoundReport, SeriesResult
from nuttq.toronto import TorontoParams

MODULES = (special, nuttall, toronto, oracle)
ERROR_CLASSES = sorted(name for name, value in vars(errors).items()
                       if isinstance(value, type) and issubclass(value, Exception))


def test_lazy_oracle_names_match_oracle_all():
    # oracle.__all__ is read from _ORACLE_NAMES, so check the list against
    # what nuttq.oracle defines: every public function or class it defines
    # is listed, and every listed name resolves on it
    defined = {name for name, value in vars(oracle).items()
               if not name.startswith("_")
               and (inspect.isfunction(value) or inspect.isclass(value))
               and value.__module__ == oracle.__name__}
    assert defined <= nuttq._ORACLE_NAMES, defined - nuttq._ORACLE_NAMES
    for name in nuttq._ORACLE_NAMES:
        assert hasattr(oracle, name), name


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


# (record, another value for its first field, its repr)
RECORDS = [
    (SeriesResult(0.5, 3, 0.125, True), 0.25,
     "SeriesResult(value=0.5, terms_used=3, last_term_abs=0.125, converged=True)"),
    (BoundReport(0.75, 0.5, False, 0.25), 1.0,
     "BoundReport(bound_value=0.75, dominated_quantity=0.5, regime_ok=False, "
     "slack=0.25)"),
    (NuttallParams(2.0, 1.0, 1.5, 0.0), 3.0,
     "NuttallParams(m=2.0, n=1.0, a=1.5, b=0.0)"),
    (TorontoParams(2.0, 1.0, 1.5, 2.0), 3.0,
     "TorontoParams(m=2.0, n=1.0, r=1.5, B=2.0)"),
]


@pytest.mark.parametrize("record, first, text", RECORDS)
def test_record_contract(record, first, text):
    # perfbench's selftest rebuilds a SeriesResult with dataclasses.replace
    # and `nuttq bounds` prints a BoundReport through dataclasses.asdict
    assert repr(record) == text
    names = [f.name for f in dataclasses.fields(record)]
    values = dataclasses.astuple(record)
    assert dataclasses.asdict(record) == dict(zip(names, values))
    moved = dataclasses.replace(record, **{names[0]: first})
    assert dataclasses.astuple(moved) == (first, *values[1:])
    copy = type(record)(*values)
    assert copy == record and hash(copy) == hash(record)
    assert copy is not record
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(record, names[0], first)
    # slotted: no per-instance __dict__
    assert not hasattr(record, "__dict__")
