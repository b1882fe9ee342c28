"""The benchmark tracer still finds the names it wraps.

perfbench/tracer.py wraps public functions by module attribute and a
few methods by ``cls.__dict__`` lookup, so renaming one of them breaks
a traced benchmark run.  This test catches that in the suite.
"""

import importlib.util
from pathlib import Path

import numpy as np

import bergmanlab
from bergmanlab import domains as dom

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_partition_spans_recorded():
    evaluate = vars(bergmanlab.geometry.Partition)["evaluate"]
    partition_of_unity = bergmanlab.geometry.partition_of_unity
    tracer = _tracer_module().Tracer()
    tracer.install(bergmanlab)
    try:
        geometry = bergmanlab.geometry
        grid = dom.build_grid(dom.disc(), 0.1)
        field = geometry.GeodesicField(bergmanlab.kernels.engine_for(
            grid.domain), grid)
        part = geometry.partition_of_unity(geometry.build_net(field, 0.5))
        vals = part.evaluate(grid.nodes[:5])
    finally:
        tracer.uninstall()
    calls = tracer.summary()["calls"]
    for name in ("geometry.partition_of_unity", "geometry.Partition.evaluate",
                 "geometry.build_net", "geometry.GeodesicField"):
        assert calls.get(name, 0) >= 1, name
    assert np.allclose(np.asarray(vals.sum(axis=0)).ravel(), 1.0)
    assert vars(bergmanlab.geometry.Partition)["evaluate"] is evaluate
    assert bergmanlab.geometry.partition_of_unity is partition_of_unity
