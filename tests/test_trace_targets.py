"""Every target of the benchmark's traced run names a function the package has.

A target that no longer resolves is skipped by the tracer and shows only
under ``absent`` in a traced benchmark run; here it fails the suite.
"""
import importlib
import importlib.util
from pathlib import Path

TRACE_RUN = Path(__file__).resolve().parents[1] / "perfbench" / "trace_run.py"


def _layers() -> dict[str, list[str]]:
    spec = importlib.util.spec_from_file_location("trace_run", TRACE_RUN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def _resolves(target: str) -> bool:
    # the lookup of the tracer's installer: a module attribute, or a method
    # defined on the class itself
    mod_name, _, attr = target.partition(":")
    try:
        owner = importlib.import_module(mod_name)
    except ImportError:
        return False
    cls_name, _, meth = attr.rpartition(".")
    if cls_name:
        cls = getattr(owner, cls_name, None)
        return cls is not None and meth in vars(cls)
    return getattr(owner, attr, None) is not None


def test_every_trace_target_resolves():
    targets = [target for group in _layers().values() for target in group]
    assert targets
    assert [t for t in targets if not _resolves(t)] == []
