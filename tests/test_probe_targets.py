"""Every benchmark probe still names a function canopy defines: a rename in
the package must not silently drop a per-layer span from the benchmark."""

import importlib.util
import sys
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


def test_probe_table_keeps_its_probes():
    assert len(spans.PROBES) >= 31


@pytest.mark.parametrize("target", [p.target for p in spans.PROBES])
def test_probe_target_resolves(target):
    owner, attr = spans._resolve(target)
    assert callable(getattr(owner, attr))
