"""Static DSM lint: unit checks, fixture coverage, shipped apps clean."""

import subprocess
import sys
from pathlib import Path

from repro.analysis.lint import lint_file, lint_paths, lint_source

REPO = Path(__file__).resolve().parents[2]
FIXTURE = Path(__file__).parent / "fixtures" / "bad_app.py"
APPS = REPO / "src" / "repro" / "apps"


def codes(findings):
    return [f.code for f in findings]


# ----------------------------------------------------------------------
# Unit: lint_source on small snippets
# ----------------------------------------------------------------------
class TestStaleViews:
    def test_view_used_after_barrier(self):
        findings = lint_source(
            "def f(tmk, grid):\n"
            "    view = yield from grid.read()\n"
            "    yield from tmk.barrier(0)\n"
            "    return view.sum()\n")
        assert codes(findings) == ["DSM001"]
        assert "barrier() at line 3" in findings[0].message
        assert "read at line 2" in findings[0].message

    def test_view_used_after_lock_release(self):
        findings = lint_source(
            "def f(tmk, grid):\n"
            "    yield from tmk.lock_acquire(0)\n"
            "    view = yield from grid.read()\n"
            "    yield from tmk.lock_release(0)\n"
            "    return view[0]\n")
        assert codes(findings) == ["DSM001"]

    def test_reread_clears_staleness(self):
        findings = lint_source(
            "def f(tmk, grid):\n"
            "    view = yield from grid.read()\n"
            "    yield from tmk.barrier(0)\n"
            "    view = yield from grid.read()\n"
            "    return view.sum()\n")
        assert findings == []

    def test_rebind_to_plain_value_stops_tracking(self):
        findings = lint_source(
            "def f(tmk, grid):\n"
            "    view = yield from grid.read()\n"
            "    view = 0.0\n"
            "    yield from tmk.barrier(0)\n"
            "    return view\n")
        assert findings == []

    def test_copy_is_not_tracked(self):
        findings = lint_source(
            "def f(tmk, grid):\n"
            "    snap = (yield from grid.read()).copy()\n"
            "    yield from tmk.barrier(0)\n"
            "    return snap.sum()\n")
        assert findings == []

    def test_loop_carried_staleness(self):
        # The sync at the bottom of the loop body staleness-marks the use
        # at the top of the next iteration; a single pass would miss it.
        findings = lint_source(
            "def f(tmk, grid, n):\n"
            "    for it in range(n):\n"
            "        view = yield from grid.read()\n"
            "        total = view.sum()\n"
            "        yield from tmk.barrier(it)\n"
            "        total += view.sum()\n"
            "    return total\n")
        assert codes(findings) == ["DSM001"]

    def test_use_before_sync_is_fine(self):
        findings = lint_source(
            "def f(tmk, grid):\n"
            "    view = yield from grid.read()\n"
            "    total = view.sum()\n"
            "    yield from tmk.barrier(0)\n"
            "    return total\n")
        assert findings == []

    def test_racy_read_is_a_view_too(self):
        findings = lint_source(
            "def f(tmk):\n"
            "    grid = tmk.shared_array('g', (8,), float)\n"
            "    row = yield from grid.read_racy(0)\n"
            "    yield from tmk.barrier(0)\n"
            "    return row\n")
        assert codes(findings) == ["DSM001"]

    def test_sync_in_either_branch_marks_stale(self):
        findings = lint_source(
            "def f(tmk, grid, cond):\n"
            "    view = yield from grid.read()\n"
            "    if cond:\n"
            "        yield from tmk.barrier(0)\n"
            "    return view.sum()\n")
        assert codes(findings) == ["DSM001"]

    def test_one_finding_per_view_per_sync(self):
        findings = lint_source(
            "def f(tmk, grid):\n"
            "    view = yield from grid.read()\n"
            "    yield from tmk.barrier(0)\n"
            "    a = view.sum()\n"
            "    b = view.sum()\n"
            "    return a + b\n")
        assert codes(findings) == ["DSM001"]


class TestOtherCodes:
    def test_write_into_view(self):
        findings = lint_source(
            "def f(grid):\n"
            "    row = yield from grid.read()\n"
            "    row[0] = 1.0\n")
        assert codes(findings) == ["DSM002"]

    def test_augmented_write_into_view(self):
        findings = lint_source(
            "def f(grid):\n"
            "    row = yield from grid.read()\n"
            "    row[0] += 1.0\n")
        assert codes(findings) == ["DSM002"]
        assert "add()" in findings[0].message

    def test_direct_shared_array_construction(self):
        findings = lint_source(
            "def f(tmk):\n"
            "    return SharedArray(tmk, 0, (4,), float)\n")
        assert codes(findings) == ["DSM003"]

    def test_view_escaping_to_attribute(self):
        findings = lint_source(
            "def f(self, grid):\n"
            "    view = yield from grid.read()\n"
            "    self.cached = view\n")
        assert codes(findings) == ["DSM004"]

    def test_shared_array_write_method_is_fine(self):
        findings = lint_source(
            "def f(tmk):\n"
            "    grid = tmk.shared_array('g', (8,), float)\n"
            "    yield from grid.write(0, 1.0)\n"
            "    yield from grid.add(1, 2.0)\n")
        assert findings == []


class TestUndelegated:
    """DSM005: a blocking call without ``yield from`` builds a generator
    and drops it -- the barrier/store/send silently never happens."""

    def test_bare_sync_call(self):
        findings = lint_source(
            "def f(proc):\n"
            "    proc.tmk.barrier(0)\n"
            "    proc.tmk.lock_acquire(1)\n"
            "    done = proc.tmk.lock_release(1)\n")
        assert codes(findings) == ["DSM005"] * 3
        assert "yield from" in findings[0].message

    def test_bare_shared_array_call(self):
        findings = lint_source(
            "def f(tmk):\n"
            "    grid = tmk.shared_array('g', (8,), float)\n"
            "    grid.write(0, 1.0)\n"
            "    grid.add(1, 2.0)\n"
            "    row = grid.read()\n"
            "    cell = grid.read_racy(0)\n")
        assert codes(findings) == ["DSM005"] * 4

    def test_bare_pvm_call(self):
        findings = lint_source(
            "def f(proc, pvm, buf):\n"
            "    pvm.send(1, 7, buf)\n"
            "    got = proc.pvm.recv(-1, 7)\n"
            "    proc.pvm.mcast([1, 2], 7, buf)\n"
            "    ready = pvm.probe(-1, 7)\n"
            "    maybe = pvm.nrecv(-1, 7)\n")
        assert codes(findings) == ["DSM005"] * 5

    def test_delegated_calls_and_lookalikes_are_fine(self):
        findings = lint_source(
            "def helper(tmk):\n"
            "    return tmk.barrier(0)\n"  # the caller delegates
            "def f(proc, fh, udp, buf):\n"
            "    grid = proc.tmk.shared_array('g', (8,), float)\n"
            "    yield from helper(proc.tmk)\n"
            "    yield from grid.write(0, 1.0)\n"
            "    got = yield from proc.pvm.recv(-1, 7)\n"
            "    fh.write('not a shared array')\n"
            "    data = fh.read()\n"
            "    udp.send(0, 1, 'cat', got, 8)\n")
        assert findings == []


# ----------------------------------------------------------------------
# Fixture and shipped apps
# ----------------------------------------------------------------------
class TestCorpus:
    def test_fixture_triggers_every_code(self):
        findings = lint_file(FIXTURE)
        assert sorted({f.code for f in findings}) == [
            "DSM001", "DSM002", "DSM003", "DSM004", "DSM005"]

    def test_shipped_apps_are_clean(self):
        assert lint_paths([APPS]) == []


# ----------------------------------------------------------------------
# Standalone tool
# ----------------------------------------------------------------------
class TestTool:
    TOOL = REPO / "tools" / "lint_dsm.py"

    def test_exit_zero_on_clean_tree(self):
        proc = subprocess.run([sys.executable, str(self.TOOL), str(APPS)],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert proc.stdout == ""

    def test_exit_nonzero_on_fixture(self):
        proc = subprocess.run([sys.executable, str(self.TOOL), str(FIXTURE)],
                              capture_output=True, text=True)
        assert proc.returncode == 1
        assert "DSM001" in proc.stdout
        assert "DSM005" in proc.stdout
        assert "finding(s)" in proc.stderr

    def test_missing_path_is_a_usage_error(self):
        proc = subprocess.run(
            [sys.executable, str(self.TOOL), "no/such/file.py"],
            capture_output=True, text=True)
        assert proc.returncode == 2
