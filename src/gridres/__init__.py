"""Zone-level fragility and restoration-time analytics for distribution-grid
outage and weather records."""

import importlib.util
import sys

__version__ = "0.1.0"


def _lazy(name: str):
    """Module `name`, run on first attribute access (importlib's LazyLoader
    recipe); a missing one fails now. 3.11's LazyLoader is unsafe if two
    threads touch the module first, and gridres runs in one thread."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    sys.modules[name] = module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


np = _lazy("numpy")  # so predict, render and fresh-skip reruns never load it
