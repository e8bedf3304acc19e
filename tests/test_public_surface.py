"""The public surface names only what exists: ``__all__`` lists, the
distributed executor's keyword options, and the verbs the docs spell."""

import argparse
import importlib
import inspect
import re
from pathlib import Path

import pytest

from repro.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("module", ["repro.obs", "repro.runtime", "repro.geostats.dataplane",
                                    "repro.core", "repro.geostats"])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
    assert len(set(mod.__all__)) == len(mod.__all__)


def test_distributed_executor_keyword_options():
    from repro.runtime.distributed import execute_numeric_distributed

    params = inspect.signature(execute_numeric_distributed).parameters.values()
    assert [p.name for p in params if p.kind is p.KEYWORD_ONLY] == [
        "timeout", "fault_plan", "degrade", "return_report", "policy", "silent_after",
    ]
    assert not any(p.kind in (p.VAR_POSITIONAL, p.VAR_KEYWORD) for p in params)


def _doc_files():
    return [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]


@pytest.mark.parametrize("path", _doc_files(), ids=lambda p: p.name)
def test_docs_name_only_verbs_the_parser_has(path):
    (sub,) = [a for a in build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    verbs = set(sub.choices)
    text = path.read_text(encoding="utf-8")
    named = set(re.findall(r"python -m repro ([a-z][a-z-]*)", text))
    named |= set(re.findall(r"`repro ([a-z][a-z-]*)[ `]", text))
    for group in re.findall(r"python -m repro \{([a-z,-]+)\}", text):
        named |= set(group.split(","))
    assert named - verbs == set()
    if path.name == "README.md":
        # the hand-written verb list is the whole verb set
        (listed,) = re.findall(r"python -m repro \{([a-z,-]+)\}", text)
        assert set(listed.split(",")) == verbs
