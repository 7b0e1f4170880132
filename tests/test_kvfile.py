"""The shared `key: value` layer, pinned through the three readers built
on it: tester reports, plans and valuation specs."""

from dataclasses import replace

import numpy as np
import pytest
from test_pinned_trials import PLANS as PINNED_PLANS

from cubetest import kvfile
from cubetest.bench import (
    ExperimentPlan,
    parse_plan_text,
    plan_to_lines,
    run_plan,
    write_trial_records,
)
from cubetest.cores import CoreTable
from cubetest.tester import TesterReport as Report
from cubetest.tester import report_from_lines, report_to_lines
from cubetest.valuations import ValuationSpec, parse_spec_text


REPORT = Report(
    queries_used=1234,
    selected_buckets=((1, 4), ()),
    learned_core=None,
    empirical_distance=None,
    eta={"initial_min": 0.25, "refine_last": 0.5},
    empty_buckets=(False, True),
    refine_rounds_used=3,
)
# REPORT with a learned core, so an accept
ACCEPT = replace(REPORT, learned_core=CoreTable(2, (0.0, 0.0, 0.0, 1.0)), empirical_distance=0.01)
REPORTS = {"reject": REPORT, "accept": ACCEPT}

# kind: (valid lines, reader of text, malformed-line prefix, schema
# name or None, a required key, (key, value) of a line whose repeat
# must lose to the later line)
KINDS = {
    "report": (
        report_to_lines(REPORT),
        report_from_lines,
        "malformed line",
        "report",
        "selected_buckets",
        ("queries_used", "1"),
    ),
    "plan": (
        plan_to_lines(ExperimentPlan("submodular", 8, 2, 0.25, overrides={"q": 16})),
        parse_plan_text,
        "malformed plan line",
        "plan",
        "eps",
        ("mode", "far_mode_b"),
    ),
    "spec": (
        ValuationSpec("additive", 2, {"weights": (0.5, 0.25)}, seed=3).canonical_lines(),
        parse_spec_text,
        "malformed spec line",
        None,
        "n",
        ("seed", "8"),
    ),
}
WITH_SCHEMA = [kind for kind, case in KINDS.items() if case[3] is not None]


def _text(lines):
    return "\n".join(lines) + "\n"


def _message(read, text):
    with pytest.raises(ValueError) as exc:
        read(text)
    return str(exc.value)


@pytest.mark.parametrize("kind", KINDS)
def test_malformed_line(kind):
    lines, read, prefix, *_ = KINDS[kind]
    text = _text(lines + ["no colon here"])
    assert _message(read, text) == f"{prefix}: 'no colon here'"


@pytest.mark.parametrize("kind", WITH_SCHEMA)
def test_wrong_or_missing_schema(kind):
    lines, read, _, name, *_ = KINDS[kind]
    wrong = ["schema: other-9" if ln.startswith("schema:") else ln for ln in lines]
    assert _message(read, _text(wrong)) == f"unknown {name} schema 'other-9'"
    missing = [ln for ln in lines if not ln.startswith("schema:")]
    assert _message(read, _text(missing)) == f"unknown {name} schema None"


@pytest.mark.parametrize("kind", KINDS)
def test_missing_required_field(kind):
    lines, read, _, name, key, _ = KINDS[kind]
    name = name or kind
    text = _text([ln for ln in lines if not ln.startswith(f"{key}:")])
    assert _message(read, text) == f"{name} missing {key!r} field"


@pytest.mark.parametrize("kind", KINDS)
def test_comments_blanks_and_repeated_keys(kind):
    lines, read, *_, (key, early) = KINDS[kind]
    expected = read(_text(lines))
    noisy = [f"{key}: {early}", "# a comment: with a colon", "", "   "]
    for ln in lines:
        noisy += [f"  {ln}  ", "   # indented comment"]
    assert read(_text(noisy)) == expected
    # the last copy of a key wins
    replaced = [f"{key}: {early}" if ln.startswith(f"{key}:") else ln for ln in lines]
    later = read(_text(lines + [f"{key}: {early}"]))
    assert later == read(_text(replaced)) != expected


@pytest.mark.parametrize("kind", ["plan", "spec"])
def test_unknown_key(kind):
    lines, read, _, name, *_ = KINDS[kind]
    name = name or kind
    assert _message(read, _text(lines + ["bogus: 1"])) == f"unknown {name} key 'bogus'"


def _record(report, **swap):
    """The text of `report`'s record with the line of each key in `swap`
    stating that value instead."""
    lines = []
    for ln in report_to_lines(report):
        key = ln.split(":")[0]
        lines.append(f"{key}: {swap[key]}" if key in swap else ln)
    return _text(lines)


def test_report_keeps_unknown_keys_lenient():
    # a trial-record block heads its report with trial: and seed: lines
    block = ["trial: 3", "seed: 8"] + report_to_lines(REPORT)
    assert report_from_lines(_text(block)) == REPORT


@pytest.mark.parametrize(
    "key, bad, message",
    [
        ("queries_used", "12x", "'12x' is not an integer"),
        ("selected_buckets", "1 4 ; x", "'x' is not an integer"),
        ("learned_core", "0 0.5 half 1", "'half' is not a number"),
        ("empirical_distance", "far", "'far' is not a number"),
        ("eta", "initial_min=0.25 refine_last=big", "'big' is not a number"),
        ("empty_buckets", "0 yes", "'yes' is not an integer"),
        ("refine_rounds_used", "3.5", "'3.5' is not an integer"),
    ],
)
def test_report_number_that_does_not_parse_names_its_key(key, bad, message):
    message = f"report key {key!r}: {message}"
    assert _message(report_from_lines, _record(REPORT, **{key: bad})) == message


@pytest.mark.parametrize("bad", ["", "0 0.5 1", "0 0 0 0 0 0 0 1"])
def test_report_core_of_other_than_2k_values_names_its_key(bad):
    # REPORT's two buckets take a core of 2^2 values
    message = f"report key 'learned_core': {len(bad.split())} values, not 2^k for k = 2"
    assert _message(report_from_lines, _record(REPORT, learned_core=bad)) == message


def test_report_phi_is_each_buckets_lowest_coordinate():
    assert REPORT.phi == (1, None)
    assert "phi: 1 -" in report_to_lines(REPORT)


def test_report_verdict_and_reject_stage_follow_the_learned_core():
    assert (REPORT.verdict, REPORT.reject_stage) == ("reject", "core_search")
    assert (ACCEPT.verdict, ACCEPT.reject_stage) == ("accept", "none")
    assert report_from_lines(_text(report_to_lines(ACCEPT))) == ACCEPT


# reports no run makes: (the report they change, its changed fields, the
# record lines that state them, the refused field, what is wrong).
# REPORT's buckets are (1 4) and (), so its k is 2 and only its second
# bucket may be flagged empty; a run's buckets hold disjoint coordinates
# of 1..n, each bucket's in ascending order
NO_RUN_MAKES = [
    ("reject", {"queries_used": -10}, {"queries_used": "-10"}, "queries_used", "-10 is below 0"),
    (
        "reject",
        {"selected_buckets": ((1,), (1,)), "empty_buckets": (False, False)},
        {"selected_buckets": "1 ; 1", "phi": "1 1", "empty_buckets": "0 0"},
        "selected_buckets",
        "coordinate 1 is in two buckets",
    ),
    (
        "reject",
        {"selected_buckets": ((1, 4), (2, 4)), "empty_buckets": (False, False)},
        {"selected_buckets": "1 4 ; 2 4", "phi": "1 2", "empty_buckets": "0 0"},
        "selected_buckets",
        "coordinate 4 is in two buckets",
    ),
    (
        "reject",
        {"selected_buckets": ((0, 4), ())},
        {"selected_buckets": "0 4 ; -", "phi": "0 -"},
        "selected_buckets",
        "coordinate 0 is below 1",
    ),
    (
        "reject",
        {"selected_buckets": ((-3,), ())},
        {"selected_buckets": "-3 ; -", "phi": "-3 -"},
        "selected_buckets",
        "coordinate -3 is below 1",
    ),
    (
        "reject",
        {"selected_buckets": ((4, 1), ())},
        {"selected_buckets": "4 1 ; -", "phi": "1 -"},
        "selected_buckets",
        "(4, 1) is not strictly ascending",
    ),
    (
        "reject",
        {"selected_buckets": ((1, 1), ())},
        {"selected_buckets": "1 1 ; -", "phi": "1 -"},
        "selected_buckets",
        "(1, 1) is not strictly ascending",
    ),
    (
        "reject",
        {"empirical_distance": 0.01},
        {"empirical_distance": "0.01"},
        "empirical_distance",
        "0.01 on a report with no core",
    ),
    (
        "accept",
        {"empirical_distance": None},
        {"empirical_distance": "-"},
        "empirical_distance",
        "None on a report with a core",
    ),
    (
        "reject",
        {"eta": {"bogus": 1.0}},
        {"eta": "bogus=1"},
        "eta",
        "names ['bogus'], not initial_min and refine_last",
    ),
    # a repeated name keeps its last value
    (
        "reject",
        {"eta": {"initial_min": 2.0}},
        {"eta": "initial_min=1 initial_min=2"},
        "eta",
        "names ['initial_min'], not initial_min and refine_last",
    ),
    # the removed influence gate's entry, in records written before it went
    (
        "reject",
        {"eta": {"gate": 0.01, "initial_min": 0.25, "refine_last": 0.5}},
        {"eta": "gate=0.01 initial_min=0.25 refine_last=0.5"},
        "eta",
        "names ['gate', 'initial_min', 'refine_last'], not initial_min and refine_last",
    ),
    (
        "reject",
        {"empty_buckets": (False, True, True)},
        {"empty_buckets": "0 1 1"},
        "empty_buckets",
        "3 flags for 2 buckets",
    ),
    (
        "reject",
        {"empty_buckets": (True, True)},
        {"empty_buckets": "1 1"},
        "empty_buckets",
        "a bucket flagged empty holds a coordinate",
    ),
    # every run makes at least one round
    (
        "reject",
        {"refine_rounds_used": 0},
        {"refine_rounds_used": "0"},
        "refine_rounds_used",
        "0 is below 1",
    ),
]


@pytest.mark.parametrize("verdict, fields, lines, key, problem", NO_RUN_MAKES)
def test_report_no_run_makes_is_refused_and_read_back_names_its_key(
    verdict, fields, lines, key, problem
):
    with pytest.raises(ValueError) as exc:
        replace(REPORTS[verdict], **fields)
    assert str(exc.value) == f"{key}: {problem}"
    record = _record(REPORTS[verdict], **lines)
    assert _message(report_from_lines, record) == f"report key {key!r}: {problem}"


def test_report_core_whose_k_is_not_the_bucket_count_is_refused():
    # the reader refuses such a record by its value count first
    with pytest.raises(ValueError) as exc:
        replace(ACCEPT, learned_core=CoreTable(3, (0.0,) * 7 + (1.0,)))
    assert str(exc.value) == "learned_core: k = 3 for 2 buckets"


@pytest.mark.parametrize(
    "verdict, key, bad, written",
    [
        ("reject", "verdict", "maybe", "reject"),
        # a verdict is "accept" only with a learned core
        ("reject", "verdict", "accept", "reject"),
        ("accept", "verdict", "reject", "accept"),
        ("reject", "reject_stage", "none", "core_search"),
        # the removed influence gate's stage, in records written before it went
        ("reject", "reject_stage", "influence_check", "core_search"),
        ("accept", "reject_stage", "core_search", "none"),
        # the buckets (1 4) and () give phi "1 -"
        ("reject", "phi", "4 -", "1 -"),
        ("reject", "phi", "1", "1 -"),
        ("reject", "phi", "1 one", "1 -"),
        ("reject", "phi", "1  -", "1 -"),
        # once read as "0 1"
        ("reject", "empty_buckets", "0 7", "0 1"),
        # a repeated name keeps its last value, written once
        (
            "reject",
            "eta",
            "initial_min=0.25 refine_last=0.5 refine_last=0.5",
            "initial_min=0.25 refine_last=0.5",
        ),
    ],
)
def test_report_derived_line_other_than_the_written_one_names_its_key(verdict, key, bad, written):
    message = f"report key {key!r}: {bad!r} is not {written!r}"
    assert _message(report_from_lines, _record(REPORTS[verdict], **{key: bad})) == message


@pytest.mark.parametrize(
    "verdict, key, bad, written",
    [
        ("reject", "queries_used", "1_000", "1000"),
        ("accept", "learned_core", "0 0 0 1", "0.0 0.0 0.0 1.0"),
        ("reject", "eta", "refine_last=0.5 initial_min=0.25", "initial_min=0.25 refine_last=0.5"),
        ("reject", "selected_buckets", "1 4;-", "1 4 ; -"),
        ("reject", "empty_buckets", "0 +1", "0 1"),
        ("accept", "empirical_distance", "1e-2", "0.01"),
    ],
)
def test_report_non_canonical_spelling_is_refused(verdict, key, bad, written):
    # each reads as the report it states, but is not the line the writer
    # writes for that report
    message = f"report key {key!r}: {bad!r} is not {written!r}"
    assert _message(report_from_lines, _record(REPORTS[verdict], **{key: bad})) == message


# tokens an edit puts in place of one token of a record line ("" drops it)
EDIT_TOKENS = (
    "0", "1", "2", "-1", "12", "0.5", "1.0", "0.0", "-", ";", "x", "", "01", "+1", "1_0", "1e-2",
    "nan", "initial_min=0.0", "refine_last=1", "accept", "reject", "none", "core_search",
)


@pytest.mark.parametrize("seed, name", enumerate(sorted(PINNED_PLANS)))
def test_pinned_records_read_back_and_one_token_edits_are_refused_or_written(
    seed, name, tmp_path
):
    # every record of the pinned plans reads back to its own lines, and a
    # record with one token changed either is refused or states a report
    # whose written lines are the changed ones
    _, records = run_plan(PINNED_PLANS[name])
    path = tmp_path / "records"
    write_trial_records(records, path)
    rng = np.random.default_rng(seed)
    outcomes = set()
    for block in path.read_text().strip().split("\n\n"):
        lines = block.split("\n")
        assert report_to_lines(report_from_lines(block)) == lines[2:]
        for _ in range(25):
            i = int(rng.integers(2, len(lines)))
            key, _, value = lines[i].partition(": ")
            tokens = value.split(" ")
            tokens[int(rng.integers(len(tokens)))] = EDIT_TOKENS[rng.integers(len(EDIT_TOKENS))]
            edited = lines[:i] + [f"{key}: {' '.join(tokens)}"] + lines[i + 1 :]
            try:
                report = report_from_lines("\n".join(edited))
            except ValueError:
                outcomes.add("refused")
                continue
            assert report_to_lines(report) == edited[2:], (block, edited[i])
            outcomes.add("read" if edited != lines else "unchanged")
    assert {"refused", "read"} <= outcomes


def test_parse_splits_at_first_colon():
    assert kvfile.parse("a: b: c\n") == {"a": "b: c"}
    assert kvfile.parse("url:  http://h:1/p  ") == {"url": "http://h:1/p"}


@pytest.mark.parametrize(
    "text, to, expected",
    [("7", int, 7), ("-3", int, -3), ("0.5", float, 0.5), ("1e-3", float, 0.001), ("nan", float, None)],
)
def test_value_reads_ints_and_floats(text, to, expected):
    got = kvfile.value(text, to, "plan", "q")
    assert type(got) is to
    assert got == expected or (expected is None and got != got)


@pytest.mark.parametrize(
    "text, to, message",
    [
        ("1.5", int, "plan key 'q': '1.5' is not an integer"),
        ("", int, "plan key 'q': '' is not an integer"),
        ("half", float, "plan key 'q': 'half' is not a number"),
    ],
)
def test_value_names_kind_key_and_text(text, to, message):
    with pytest.raises(ValueError) as exc:
        kvfile.value(text, to, "plan", "q")
    assert str(exc.value) == message


def test_values_reads_each_token_and_names_the_first_bad_one():
    assert kvfile.values(" 0  0.5\t1 ", float, "spec", "weights") == (0.0, 0.5, 1.0)
    assert kvfile.values("", int, "spec", "cover_1") == ()
    with pytest.raises(ValueError) as exc:
        kvfile.values("1 x y", int, "spec", "cover_1")
    assert str(exc.value) == "spec key 'cover_1': 'x' is not an integer"


def test_write_lines_ends_every_line(tmp_path):
    path = tmp_path / "out.txt"
    kvfile.write_lines(path, ["a: 1", "", "b: 2"])
    assert path.read_bytes() == b"a: 1\n\nb: 2\n"
    kvfile.write_lines(path, [])
    assert path.read_bytes() == b"\n"
