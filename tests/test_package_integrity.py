"""Source-package integrity: every import-tree dir must be a package."""

import importlib.util
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def _load_checker():
    path = REPO_ROOT / "tools" / "check_packages.py"
    spec = importlib.util.spec_from_file_location("check_packages", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules["check_packages"] = module
    spec.loader.exec_module(module)
    return module


checker = _load_checker()


class TestRepo:
    def test_no_broken_packages(self):
        assert checker.check(REPO_ROOT) == []


class TestDetection:
    def test_missing_init_is_flagged(self, tmp_path):
        pkg = tmp_path / "src" / "thing" / "sub"
        pkg.mkdir(parents=True)
        (tmp_path / "src" / "thing" / "__init__.py").write_text("")
        (pkg / "mod.py").write_text("x = 1\n")
        problems = checker.check(tmp_path)
        assert any("missing __init__.py" in p for p in problems)
        assert any("thing/sub" in p.replace("\\", "/")
                   for p in problems)

    def test_ghost_package_is_flagged(self, tmp_path):
        # the fleet/ failure mode: a dir whose only content was
        # __pycache__ (sources deleted, directory left behind)
        ghost = tmp_path / "src" / "ghost"
        (ghost / "__pycache__").mkdir(parents=True)
        (ghost / "__pycache__" / "mod.cpython-312.pyc").write_bytes(b"")
        problems = checker.check(tmp_path)
        assert any("ghost" in p and "stray" in p for p in problems)

    def test_clean_tree_passes(self, tmp_path):
        pkg = tmp_path / "src" / "ok"
        pkg.mkdir(parents=True)
        (pkg / "__init__.py").write_text("")
        (pkg / "mod.py").write_text("x = 1\n")
        data = tmp_path / "src" / "ok" / "data"
        data.mkdir()
        (data / "table.json").write_text("{}")
        assert checker.check(tmp_path) == []


#: module -> names that ``perfbench/spanlog.py`` wraps by attribute
#: lookup; moving one silently drops its layer from the benchmark
BENCHMARK_HOOKS = {
    "repro.pipeline.trace": ("generate_trace",),
    "repro.campaign.jobs": ("generate_trace",),
    "repro.verify.oracle": ("generate_trace", "generate_trace_compiled"),
    "repro.core.cpu": ("generate_trace",),
    "repro.core.compiled": ("lower_trace",),
    "repro.core.vector": ("lower_trace",),
    "repro.campaign.cache": ("trace_fingerprint",),
    "repro.campaign.runner": ("trace_fingerprint", "_execute_jobs"),
    "repro.predict.service": ("trace_fingerprint",),
}


class TestBenchmarkHooks:
    def test_hook_points_importable(self):
        missing = [f"{module}.{name}"
                   for module, names in BENCHMARK_HOOKS.items()
                   for name in names
                   if not hasattr(importlib.import_module(module), name)]
        assert missing == []
