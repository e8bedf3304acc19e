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
                                    "repro.perfmodel", "repro.sweep", "repro", "repro.precision",
                                    "repro.tiles", "repro.tlr", "repro.bench"])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
    assert len(set(mod.__all__)) == len(mod.__all__)


def test_distributed_executor_keyword_options():
    from repro.runtime.distributed import execute_numeric_distributed

    params = inspect.signature(execute_numeric_distributed).parameters.values()
    assert [p.name for p in params if p.kind is p.KEYWORD_ONLY] == [
        "timeout", "fault_plan", "degrade", "return_report", "silent_after",
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


def _verb_options():
    """verb -> {option string: its argparse action}."""
    return {verb: {opt: action for action in sp._actions for opt in action.option_strings}
            for verb, sp in _subparsers().items()}


def _command_lines(path):
    """``(verb, rest of the line)`` of every ``repro <verb> …`` command line
    (backslash continuations joined; an inline span ends at its backtick)."""
    text = re.sub(r"\\\n\s*", " ", path.read_text(encoding="utf-8"))
    return re.findall(r"(?:python -m repro|\brepro) ([a-z][a-z-]*)([^`\n]*)", text)


@pytest.mark.parametrize("path", _doc_files(), ids=lambda p: p.name)
def test_docs_give_a_verb_only_flags_it_has(path):
    """Every ``--flag`` on a ``repro <verb> …`` command line is one of that
    verb's options."""
    options = _verb_options()
    dead = []
    for verb, rest in _command_lines(path):
        if verb in options:  # a dead verb is the test above's finding
            dead += [(verb, flag) for flag in re.findall(r"(?<![\w-])--[a-z][a-z-]*", rest)
                     if flag not in options[verb]]
    assert dead == []


@pytest.mark.parametrize("path", _doc_files(), ids=lambda p: p.name)
def test_docs_give_a_flag_only_values_it_takes(path):
    """A value given to a flag with ``choices`` (``--strategy auto``) on a
    ``repro <verb> …`` command line is one of those choices (``…`` is a
    placeholder, not a value)."""
    options = _verb_options()
    dead = []
    for verb, rest in _command_lines(path):
        for flag, value in re.findall(r"(?<![\w-])(--[a-z][a-z-]*)[ =]([^\s…-]\S*)", rest):
            action = options.get(verb, {}).get(flag)
            if action is not None and action.choices and value not in action.choices:
                dead.append((verb, flag, value))
    assert dead == []


def test_the_flag_check_sees_a_dead_flag(tmp_path):
    doc = tmp_path / "doc.md"
    doc.write_text("```\nPYTHONPATH=src python -m repro analyze run-dir \\\n"
                   "    --buckets 10 --metrics m.json\n```\n"
                   "and `repro compare a b --fail-on-regress` but `--format prom` alone is prose\n")
    with pytest.raises(AssertionError, match="--metrics"):
        test_docs_give_a_verb_only_flags_it_has(doc)


def test_the_value_check_sees_a_dead_choice(tmp_path):
    doc = tmp_path / "doc.md"
    doc.write_text("```\nPYTHONPATH=src python -m repro sweep --n 1024 \\\n"
                   "    --config FP64 --strategy stc --strategy ttc\n```\n"
                   "and `repro simulate --policy fifo` but `--strategy both` alone is prose\n")
    with pytest.raises(AssertionError, match="'stc'"):
        test_docs_give_a_flag_only_values_it_takes(doc)


def _doc_spans():
    """The backticked spans of the prose docs."""
    docs = [ROOT / "README.md", ROOT / "DESIGN.md", ROOT / "EXPERIMENTS.md",
            *sorted((ROOT / "docs").glob("*.md"))]
    return [span for doc in docs
            for span in re.findall(r"`([^`\n]+)`", doc.read_text(encoding="utf-8"))]


def _dead_dotted_paths(spans):
    """Dotted ``repro.…`` paths that name no module or attribute."""
    dead = []
    for path in sorted({m for span in spans for m in re.findall(r"\brepro(?:\.\w+)+", span)}):
        parts = path.split(".")
        cut = len(parts)
        while True:  # the longest importable prefix, then attributes
            try:
                obj = importlib.import_module(".".join(parts[:cut]))
                break
            except ImportError:
                cut -= 1
        try:
            for attr in parts[cut:]:
                obj = getattr(obj, attr)
        except AttributeError:
            dead.append(path)
    return dead


#: where a ``*.py`` path in the docs may be rooted
_PY_BASES = ("", "src", "src/repro", "benchmarks", "tests", "examples")


def _dead_py_paths(spans):
    """``*.py`` paths (a ``::name`` suffix aside) that exist under no base."""
    paths = {m for span in spans for m in re.findall(r"[\w./-]*\w\.py\b", span)}
    return sorted(p for p in paths if not any((ROOT / base / p).exists() for base in _PY_BASES))


def test_docs_name_only_dotted_paths_that_resolve():
    spans = _doc_spans()
    assert any(re.search(r"\brepro\.\w", span) for span in spans)
    assert _dead_dotted_paths(spans) == []


def test_docs_name_only_py_files_that_exist():
    spans = _doc_spans()
    assert any(span.endswith(".py") for span in spans)
    assert _dead_py_paths(spans) == []


def test_the_path_checks_see_a_dead_path():
    spans = re.findall(r"`([^`\n]+)`",
                       "`repro.perfmodel.calibration.verify_table2` and "
                       "`perfmodel/calibration.py::verify_table2` beside "
                       "`repro.core.mp_cholesky` and `core/cholesky.py::mp_cholesky`")
    assert _dead_dotted_paths(spans) == ["repro.perfmodel.calibration.verify_table2"]
    assert _dead_py_paths(spans) == ["perfmodel/calibration.py"]
