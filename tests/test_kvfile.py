"""The shared `key: value` layer, pinned through the three readers built
on it: tester reports, plans and valuation specs."""

from dataclasses import replace

import pytest

from cubetest import kvfile
from cubetest.bench import ExperimentPlan, parse_plan_text, plan_to_lines
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
        ("learned_core", "", "0 values, not 2^k for a k >= 1"),
        ("learned_core", "0 0.5 1", "3 values, not 2^k for a k >= 1"),
        ("empirical_distance", "far", "'far' is not a number"),
        ("eta", "initial_min=0.25 refine_last=big", "'big' is not a number"),
        ("empty_buckets", "0 yes", "'yes' is not an integer"),
        ("refine_rounds_used", "3.5", "'3.5' is not an integer"),
    ],
)
def test_report_number_that_does_not_parse_names_its_key(key, bad, message):
    lines = [f"{key}: {bad}" if ln.startswith(f"{key}:") else ln for ln in report_to_lines(REPORT)]
    assert _message(report_from_lines, _text(lines)) == f"report key {key!r}: {message}"


def test_report_phi_is_each_buckets_lowest_coordinate():
    assert REPORT.phi == (1, None)
    assert "phi: 1 -" in report_to_lines(REPORT)


def test_report_verdict_and_reject_stage_follow_the_learned_core():
    assert (REPORT.verdict, REPORT.reject_stage) == ("reject", "core_search")
    assert (ACCEPT.verdict, ACCEPT.reject_stage) == ("accept", "none")
    assert report_from_lines(_text(report_to_lines(ACCEPT))) == ACCEPT


@pytest.mark.parametrize("verdict, dist", [("reject", 0.01), ("accept", None)])
def test_report_has_a_distance_exactly_with_a_core(verdict, dist):
    with pytest.raises(ValueError) as exc:
        replace(REPORTS[verdict], empirical_distance=dist)
    assert str(exc.value) == "empirical_distance must be present exactly when learned_core is"


@pytest.mark.parametrize(
    "key, bad, message",
    [
        ("empty_buckets", "0 1 1", "3 flags for 2 buckets"),
        ("learned_core", "0 0 0 0 0 0 0 1", "k = 3 for 2 buckets"),
        ("empty_buckets", "1 1", "a bucket flagged empty holds a coordinate"),
        # once read as "0 1"
        ("empty_buckets", "0 7", "a flag other than 0 or 1"),
    ],
)
def test_report_field_that_disagrees_with_the_buckets_names_its_key(key, bad, message):
    # REPORT's buckets are (1 4) and (), so its k is 2 and only its second
    # bucket may be flagged empty
    lines = [f"{key}: {bad}" if ln.startswith(f"{key}:") else ln for ln in report_to_lines(REPORT)]
    assert _message(report_from_lines, _text(lines)) == f"report key {key!r}: {message}"


@pytest.mark.parametrize(
    "buckets, phi, empty, message",
    [
        # each read back before these checks, with the phi and
        # empty_buckets lines that match its buckets
        ("1 ; 1", "1 1", "0 0", "coordinate 1 is in two buckets"),
        ("1 4 ; 2 4", "1 2", "0 0", "coordinate 4 is in two buckets"),
        ("0 4 ; -", "0 -", "0 1", "coordinate 0 is below 1"),
        ("-3 ; -", "-3 -", "0 1", "coordinate -3 is below 1"),
        ("4 1 ; -", "1 -", "0 1", "4 1 is not strictly ascending"),
        ("1 1 ; -", "1 -", "0 1", "1 1 is not strictly ascending"),
    ],
)
def test_report_buckets_no_run_writes_name_their_key(buckets, phi, empty, message):
    # a run's buckets hold disjoint coordinates of 1..n, each bucket's in
    # ascending order
    swap = {"selected_buckets": buckets, "phi": phi, "empty_buckets": empty}
    lines = []
    for ln in report_to_lines(REPORT):
        key = ln.split(":")[0]
        lines.append(f"{key}: {swap[key]}" if key in swap else ln)
    assert _message(report_from_lines, _text(lines)) == f"report key 'selected_buckets': {message}"


@pytest.mark.parametrize(
    "bad, message",
    [
        ("bogus=1", "unknown name 'bogus'"),
        ("initial_min=1 initial_min=2", "'initial_min' given twice"),
        ("initial_min=0.25 refine_last=0.5 refine_last=0.5", "'refine_last' given twice"),
        # the removed influence gate's entry, in records written before it went
        ("gate=0.01 initial_min=0.25 refine_last=0.5", "unknown name 'gate'"),
    ],
)
def test_report_eta_name_not_written_names_its_key(bad, message):
    # a run writes initial_min and refine_last, once each
    lines = [f"eta: {bad}" if ln.startswith("eta:") else ln for ln in report_to_lines(REPORT)]
    assert _message(report_from_lines, _text(lines)) == f"report key 'eta': {message}"


@pytest.mark.parametrize(
    "verdict, key, bad, message",
    [
        ("reject", "empirical_distance", "0.01", "'0.01' on a record with no core"),
        ("accept", "empirical_distance", "-", "'-' on a record with a core"),
        ("reject", "queries_used", "-10", "-10 is below 0"),
        # every run makes at least one round
        ("reject", "refine_rounds_used", "0", "0 is below 1"),
    ],
)
def test_report_count_or_distance_out_of_range_names_its_key(verdict, key, bad, message):
    lines = report_to_lines(REPORTS[verdict])
    lines = [f"{key}: {bad}" if ln.startswith(f"{key}:") else ln for ln in lines]
    assert _message(report_from_lines, _text(lines)) == f"report key {key!r}: {message}"


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
    ],
)
def test_report_derived_line_other_than_the_written_one_names_its_key(verdict, key, bad, written):
    lines = report_to_lines(REPORTS[verdict])
    lines = [f"{key}: {bad}" if ln.startswith(f"{key}:") else ln for ln in lines]
    message = f"report key {key!r}: {bad!r} is not {written!r}"
    assert _message(report_from_lines, _text(lines)) == message


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
