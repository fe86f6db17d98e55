"""The benchmark's tracer (``bench/layers.py``) wraps program functions by
name: every name it wraps must exist, and uninstalling must restore each
one, so that a rename breaks this test and not only a traced benchmark run.
"""
import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "bench" / "layers.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def inherited(owner, name, original):
    return isinstance(owner, type) and any(
        vars(base).get(name) is original for base in owner.__mro__[1:]
    )


def test_tracer_installs_and_restores_every_name():
    tracer = load_layers().Tracer()
    try:
        tracer.install()
    finally:
        wrapped = list(tracer._undo)
        tracer.uninstall()
        # the tracer reads an inherited method with getattr, so uninstalling
        # leaves a copy on the subclass; later tests expect none there
        for owner, name, original in wrapped:
            if inherited(owner, name, original):
                delattr(owner, name)
    assert wrapped
    for owner, name, original in wrapped:
        assert getattr(owner, name) is original, (owner, name)
