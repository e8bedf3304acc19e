"""Every JSON document a verb writes is one run summary.

``mle``, ``simulate`` and ``sweep --metrics-out``, ``simulate
--profile-out``, ``analyze --json-out`` and ``compare --report-out`` all
write ``repro.obs.run_summary/1``: ``repro analyze`` reads each of them,
and ``repro compare`` reads each one scope by scope and finds nothing to
flag against itself.
"""

import json

import pytest

from repro.cli import main
from repro.obs.regress import compare_files, load_metric_scopes


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    """One document of each kind, written by the verbs themselves."""
    d = tmp_path_factory.mktemp("documents")
    docs = {
        "mle": d / "mle.json",
        "simulate": d / "run" / "summary.json",
        "sweep": d / "sweep.json",
        "profile": d / "profile.json",
        "analysis": d / "analysis.json",
        "regress": d / "regress.json",
    }
    simulate = ["simulate", "--n", "2048", "--nb", "256"]
    for argv in (
        ["mle", "--model", "2d-sqexp", "--n", "64", "--accuracy", "1e-4",
         "--metrics-out", str(docs["mle"])],
        [*simulate, "--trace-out", str(d / "run" / "trace.json"),
         "--metrics-out", str(docs["simulate"])],
        [*simulate, "--profile-out", str(docs["profile"])],
        ["sweep", "--n", "1024", "--nb", "256", "--config", "FP64",
         "--config", "FP64/FP16_32", "--cache-dir", str(d / "cache"),
         "--progress-every", "-1", "--metrics-out", str(docs["sweep"])],
        ["analyze", str(d / "run"), "--json-out", str(docs["analysis"])],
        ["compare", str(docs["simulate"]), str(docs["simulate"]),
         "--report-out", str(docs["regress"])],
    ):
        assert main(argv) == 0, argv
    return docs


@pytest.mark.parametrize("kind", ["mle", "simulate", "sweep", "profile", "analysis", "regress"])
def test_every_verb_writes_a_run_summary(documents, kind, capsys):
    path = documents[kind]
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert doc["schema"] == "repro.obs.run_summary/1"
    assert load_metric_scopes(doc)  # something to compare, scope by scope
    capsys.readouterr()
    assert main(["analyze", str(path)]) == 0
    assert main(["compare", str(path), str(path), "--fail-on-regress"]) == 0
    assert "verdict OK" in capsys.readouterr().out


def test_mle_summary_holds_one_scope_per_fit(documents):
    doc = json.loads(documents["mle"].read_text(encoding="utf-8"))
    (fit,) = doc["runs"]
    assert fit["spec"] == {"label": "1e-04", "accuracy": 1e-4}
    assert set(fit["metrics"]) == {"loglik", "n_evals", "converged", "infeasible_evals",
                                   "theta_0", "theta_1"}
    assert list(load_metric_scopes(doc)) == ["accuracy=0.0001,label=1e-04"]
    report = compare_files(documents["mle"], documents["mle"])
    assert {d.metric for d in report.deltas} == {"loglik", "converged", "n_evals",
                                                 "infeasible_evals"}


@pytest.mark.parametrize("worsen", [
    lambda fit: fit.update(loglik=fit["loglik"] - 1.0),
    lambda fit: fit.update(converged=False),
], ids=["lower-loglik", "stopped-converging"])
def test_a_worse_fit_fails_the_gate(documents, tmp_path, worsen, capsys):
    doc = json.loads(documents["mle"].read_text(encoding="utf-8"))
    fit = doc["runs"][0]["metrics"]
    fit["converged"] = True
    base, cand = tmp_path / "base.json", tmp_path / "cand.json"
    base.write_text(json.dumps(doc), encoding="utf-8")
    worsen(fit)
    cand.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["compare", str(base), str(cand), "--fail-on-regress"]) == 1
    assert "1 regression(s)" in capsys.readouterr().out


def test_analysis_carries_the_summary_it_read(documents):
    """``compare summary.json analysis.json`` changes no metric: the
    analysis is the summary it read plus its own section."""
    summary = json.loads(documents["simulate"].read_text(encoding="utf-8"))
    analysis = json.loads(documents["analysis"].read_text(encoding="utf-8"))
    assert {k: analysis[k] for k in summary} == summary
    assert set(analysis) - set(summary) == {"analysis"}
    assert load_metric_scopes(analysis) == load_metric_scopes(summary)
    report = compare_files(documents["simulate"], documents["analysis"])
    assert report.deltas and all(d.rel_delta == 0.0 for d in report.deltas)
    assert report.missing_in_candidate == report.added_in_candidate == []
