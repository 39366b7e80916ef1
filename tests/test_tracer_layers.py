"""Every function the bench tracer wraps exists in the library.

`bench/tracer.py` looks each (module, function) of its LAYERS up with
`getattr` when a traced run starts, so a name removed from `src/` would
crash every traced bench run.  The tracer is loaded read-only here.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_every_traced_layer_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.LAYERS
    missing = [
        (module, func)
        for _, module, func in tracer.LAYERS
        if not callable(getattr(importlib.import_module(f"quiverbundles.{module}"), func, None))
    ]
    assert missing == []
