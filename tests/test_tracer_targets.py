"""The benchmark tracer wraps package names; each must keep existing.

`perfbench/tracer.py` replaces every target by reading
`owner.__dict__[attr]`, so a refactor that drops or moves a wrapped
name would crash every traced benchmark child.  This test fails first.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_traced_name_resolves():
    targets = _targets()
    assert targets
    for mod_name, path, *_ in targets:
        module = importlib.import_module(f"adelweil.{mod_name}")
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        assert attr in owner.__dict__, f"adelweil.{mod_name}.{path}"
