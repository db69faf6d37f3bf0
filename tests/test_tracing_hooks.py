"""The benchmark tracer's hooks resolve to distinct package functions.

`perfbench/tracing.py` wraps the functions it names by identity and skips
a name it cannot find, so a rename in the package would silently drop a
span from traced runs, and two names bound to one function would be
wrapped, and timed, twice.  The tracer is loaded by path, as it is.
"""

import importlib
import importlib.util
import pathlib

_TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# named by the tracer but gone from the package; the entry is due to be dropped
_DEAD = {("wedgemech.constraints", "_membership_residuals_surface")}


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_spanned_and_counted_hook_resolves_to_its_own_function():
    tracing = _load_tracing()
    owners = {}
    for module_name, attr, *_ in tracing.SPANNED + tracing.COUNTED:
        if (module_name, attr) in _DEAD:
            continue
        fn = getattr(importlib.import_module(module_name), attr, None)
        assert fn is not None, f"{module_name}.{attr} is missing; the tracer would skip it"
        assert id(fn) not in owners, f"{module_name}.{attr} is the same object as {owners[id(fn)]}"
        owners[id(fn)] = f"{module_name}.{attr}"
