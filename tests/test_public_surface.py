"""The public surface names only what exists: ``__all__`` lists, the
distributed executor's keyword options, and the verbs and flags the docs
spell."""

import argparse
import importlib
import inspect
import re
from pathlib import Path

import pytest

from repro.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("module", ["repro.obs", "repro.runtime", "repro.geostats.dataplane",
                                    "repro.core", "repro.geostats", "repro.faults",
                                    "repro.perfmodel", "repro.sweep"])
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
    return [ROOT / "README.md", ROOT / "DESIGN.md", *sorted((ROOT / "docs").glob("*.md")),
            ROOT / ".claude" / "skills" / "verify" / "SKILL.md"]


def _subparsers():
    (sub,) = [a for a in build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


@pytest.mark.parametrize("path", _doc_files(), ids=lambda p: p.name)
def test_docs_name_only_verbs_the_parser_has(path):
    verbs = set(_subparsers())
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


@pytest.mark.parametrize("path", _doc_files(), ids=lambda p: p.name)
def test_docs_give_a_verb_only_flags_it_has(path):
    """Every ``--flag`` on a ``repro <verb> …`` command line (backslash
    continuations joined; an inline span ends at its backtick) is one of
    that verb's options."""
    flags = {verb: {opt for action in sp._actions for opt in action.option_strings}
             for verb, sp in _subparsers().items()}
    text = re.sub(r"\\\n\s*", " ", path.read_text(encoding="utf-8"))
    dead = []
    for verb, rest in re.findall(r"(?:python -m repro|\brepro) ([a-z][a-z-]*)([^`\n]*)", text):
        if verb in flags:  # a dead verb is the test above's finding
            dead += [(verb, flag) for flag in re.findall(r"(?<![\w-])--[a-z][a-z-]*", rest)
                     if flag not in flags[verb]]
    assert dead == []


def test_the_flag_check_sees_a_dead_flag(tmp_path):
    doc = tmp_path / "doc.md"
    doc.write_text("```\nPYTHONPATH=src python -m repro analyze run-dir \\\n"
                   "    --buckets 10 --metrics m.json\n```\n"
                   "and `repro compare a b --fail-on-regress` but `--format prom` alone is prose\n")
    with pytest.raises(AssertionError, match="--metrics"):
        test_docs_give_a_verb_only_flags_it_has(doc)
