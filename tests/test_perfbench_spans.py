"""The benchmark's tracer wraps choreo's layers by name: every name it wraps
must exist, and uninstalling must restore every attribute it replaced."""

import importlib
import importlib.util
from pathlib import Path

import choreo

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_existing_names_and_restores_them():
    spans = load_spans()
    mods = {m: importlib.import_module(f"choreo.{m}") for m in spans.MODULES}
    objective, loop_cls = mods["optimize"].Objective, mods["loops"].FourierLoop
    namespaces = [choreo, *mods.values()]
    methods = [(objective, attr) for attr, _ in spans.POINT_METHODS]
    methods.append((loop_cls, "sample"))
    before = [dict(vars(ns)) for ns in namespaces]
    originals = {(c, a): getattr(c, a) for c, a in methods}
    targets = {(m, a): getattr(mods[m], a) for m, a, _ in spans.FUNCTIONS}

    tracer = spans.Tracer()
    tracer.install()
    try:
        for (m, a), orig in targets.items():
            assert getattr(mods[m], a) is not orig, f"{m}.{a} was not wrapped"
        for (c, a), orig in originals.items():
            assert getattr(c, a) is not orig, f"{c.__name__}.{a} was not wrapped"
    finally:
        tracer.uninstall()

    for ns, saved in zip(namespaces, before):
        for key, value in saved.items():
            assert vars(ns)[key] is value, f"{ns.__name__}.{key} was not restored"
    for (c, a), orig in originals.items():
        assert getattr(c, a) is orig
