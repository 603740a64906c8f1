"""The benchmark tracer's hooks name functions that exist in wildcv."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_hook_resolves():
    """A renamed hook would leave its span reading 0 in a traced run."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TRACED
    for name, modname, path in tracer.TRACED:
        owner = importlib.import_module(modname)
        for part in path.split("."):
            owner = getattr(owner, part, None)
        assert callable(owner), f"{name}: {modname}.{path} not found"
