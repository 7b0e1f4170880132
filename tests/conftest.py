import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from cubetest.tester import TesterConfig  # noqa: E402

# a dataclass whose name starts with "Test": keep pytest from collecting
# it in every module that imports it
TesterConfig.__test__ = False

_CRITERION_PATTERN = re.compile(r"test_criterion_(\d+)_(\w+)")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion."""
    lines = []
    for outcome in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(report, "nodeid", "")
            if "test_acceptance" not in nodeid:
                continue
            match = _CRITERION_PATTERN.search(nodeid)
            if not match:
                continue
            num = int(match.group(1))
            name = match.group(2).replace("_", " ")
            status = "PASS" if outcome == "passed" else "FAIL"
            lines.append((num, f"criterion {num:2d} [{status}] {name}"))
    if lines:
        terminalreporter.write_sep("=", "acceptance criteria")
        for _, line in sorted(lines):
            terminalreporter.write_line(line)
