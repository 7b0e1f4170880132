"""The shared `key: value` layer, pinned through the four readers built on
it: tester configs, tester reports, plans and valuation specs."""

import pytest

from cubetest import kvfile
from cubetest.bench import ExperimentPlan, parse_plan_text, plan_to_lines
from cubetest.tester import TesterReport as Report
from cubetest.tester import (
    TesterConfig,
    config_to_lines,
    load_config,
    report_from_lines,
    report_to_lines,
)
from cubetest.valuations import ValuationSpec, parse_spec_text


def _read_config(text, tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text(text)
    return load_config(path)


REPORT = Report(
    verdict="reject",
    reject_stage="influence_check",
    queries_used=1234,
    selected_buckets=((1, 4), ()),
    learned_core=None,
    empirical_distance=None,
    eta={"gate": 0.5, "initial_min": 0.25},
    phi=(1, None),
    empty_buckets=(False, True),
    refine_rounds_used=3,
)

# kind: (valid lines, reader of text, malformed-line prefix, schema
# name or None, a required key, (key, value) of a line whose repeat
# must lose to the later line)
KINDS = {
    "config": (
        config_to_lines(TesterConfig(eps=0.25, k=2, q=128, seed=9)),
        _read_config,
        "malformed line",
        "config",
        "eps",
        ("q", "7"),
    ),
    "report": (
        report_to_lines(REPORT),
        lambda text, _: report_from_lines(text),
        "malformed line",
        "report",
        "selected_buckets",
        ("queries_used", "1"),
    ),
    "plan": (
        plan_to_lines(ExperimentPlan("submodular", 8, 2, 0.25, overrides={"q": 16})),
        lambda text, _: parse_plan_text(text),
        "malformed plan line",
        "plan",
        "eps",
        ("mode", "far_mode_b"),
    ),
    "spec": (
        ValuationSpec("additive", 2, {"weights": (0.5, 0.25)}, seed=3).canonical_lines(),
        lambda text, _: parse_spec_text(text),
        "malformed spec line",
        None,
        "n",
        ("seed", "8"),
    ),
}
WITH_SCHEMA = [kind for kind, case in KINDS.items() if case[3] is not None]


def _text(lines):
    return "\n".join(lines) + "\n"


def _message(read, text, tmp_path):
    with pytest.raises(ValueError) as exc:
        read(text, tmp_path)
    return str(exc.value)


@pytest.mark.parametrize("kind", KINDS)
def test_malformed_line(kind, tmp_path):
    lines, read, prefix, *_ = KINDS[kind]
    text = _text(lines + ["no colon here"])
    assert _message(read, text, tmp_path) == f"{prefix}: 'no colon here'"


@pytest.mark.parametrize("kind", WITH_SCHEMA)
def test_wrong_or_missing_schema(kind, tmp_path):
    lines, read, _, name, *_ = KINDS[kind]
    wrong = ["schema: other-9" if ln.startswith("schema:") else ln for ln in lines]
    assert _message(read, _text(wrong), tmp_path) == f"unknown {name} schema 'other-9'"
    missing = [ln for ln in lines if not ln.startswith("schema:")]
    assert _message(read, _text(missing), tmp_path) == f"unknown {name} schema None"


@pytest.mark.parametrize("kind", KINDS)
def test_missing_required_field(kind, tmp_path):
    lines, read, _, name, key, _ = KINDS[kind]
    name = name or kind
    text = _text([ln for ln in lines if not ln.startswith(f"{key}:")])
    assert _message(read, text, tmp_path) == f"{name} missing {key!r} field"


@pytest.mark.parametrize("kind", KINDS)
def test_comments_blanks_and_repeated_keys(kind, tmp_path):
    lines, read, *_, (key, early) = KINDS[kind]
    expected = read(_text(lines), tmp_path)
    noisy = [f"{key}: {early}", "# a comment: with a colon", "", "   "]
    for ln in lines:
        noisy += [f"  {ln}  ", "   # indented comment"]
    assert read(_text(noisy), tmp_path) == expected
    # the last copy of a key wins
    replaced = [f"{key}: {early}" if ln.startswith(f"{key}:") else ln for ln in lines]
    later = read(_text(lines + [f"{key}: {early}"]), tmp_path)
    assert later == read(_text(replaced), tmp_path) != expected


@pytest.mark.parametrize("kind", ["config", "plan", "spec"])
def test_unknown_key(kind, tmp_path):
    lines, read, _, name, *_ = KINDS[kind]
    name = name or kind
    assert _message(read, _text(lines + ["bogus: 1"]), tmp_path) == f"unknown {name} key 'bogus'"


def test_report_keeps_unknown_keys_lenient():
    # a trial-record block heads its report with trial: and seed: lines
    block = ["trial: 3", "seed: 8"] + report_to_lines(REPORT)
    assert report_from_lines(_text(block)) == REPORT


def test_parse_splits_at_first_colon():
    assert kvfile.parse("a: b: c\n") == {"a": "b: c"}
    assert kvfile.parse("url:  http://h:1/p  ") == {"url": "http://h:1/p"}


def test_write_lines_ends_every_line(tmp_path):
    path = tmp_path / "out.txt"
    kvfile.write_lines(path, ["a: 1", "", "b: 2"])
    assert path.read_bytes() == b"a: 1\n\nb: 2\n"
    kvfile.write_lines(path, [])
    assert path.read_bytes() == b"\n"
