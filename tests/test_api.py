"""The public API is what the README lists, and the names the benchmark
harness in perfbench/ reaches into still exist."""

import contextlib
import importlib.util
import io
import re
from pathlib import Path

import qpmap
from qpmap import model

ROOT = Path(__file__).resolve().parents[1]


def readme_api():
    text = (ROOT / "README.md").read_text()
    para = re.search(r"^Public API \(`qpmap.__all__`\):(.*?)\n\n", text, re.S | re.M)
    assert para, "README lists no public API"
    return set(re.findall(r"`(\w+)`", para.group(1)))


def test_all_is_exactly_the_readme_list():
    assert len(qpmap.__all__) == len(set(qpmap.__all__))
    assert set(qpmap.__all__) == readme_api()
    for name in qpmap.__all__:
        assert hasattr(qpmap, name)


def test_readme_library_usage_runs():
    text = (ROOT / "README.md").read_text()
    block = re.search(r"^## Library usage\n\n```python\n(.*?)^```", text, re.S | re.M)
    assert block, "README has no library usage block"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block.group(1), {})
    assert out.getvalue() == "[0 0] 2.0\n"


def test_benchmark_trace_targets_exist():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = tracing._targets()
    assert targets
    for owner, attr, _ in targets:
        # the tracer wraps owner.__dict__[attr], so inherited names do not count
        assert attr in owner.__dict__, f"{owner.__name__}.{attr}"


def test_benchmark_model_names_exist():
    assert isinstance(model.NONNEG_TOL, float)
    assert isinstance(model.SIMPLEX_SUM_TOL, float)
    assert issubclass(model.InvalidAssignmentError, Exception)
