"""Metadata capture, timestamps, command quoting and git HEAD resolution."""

import os
import shlex
import sys
import time
from datetime import datetime, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from provwrap import (
    capture_run,
    format_command,
    format_timestamp,
    parse_timestamp,
    resolve_git_head,
)


class TestTimestamps:
    def test_millisecond_utc_format(self):
        dt = datetime(2026, 8, 10, 12, 34, 56, 789000, tzinfo=timezone.utc)
        assert format_timestamp(dt) == "2026-08-10T12:34:56.789Z"

    def test_parse_then_format_is_identity(self):
        text = "2026-08-10T12:34:56.789Z"
        assert format_timestamp(parse_timestamp(text)) == text

    def test_format_then_parse_is_identity(self):
        dt = datetime(2021, 1, 2, 3, 4, 5, 6000, tzinfo=timezone.utc)
        assert parse_timestamp(format_timestamp(dt)) == dt

    def test_naive_datetime_rejected(self):
        with pytest.raises(ValueError):
            format_timestamp(datetime(2020, 1, 1))

    @pytest.mark.parametrize(
        "text",
        [
            "2026-08-10T12:34:56Z",  # no milliseconds
            "2026-08-10T12:34:56.789012Z",  # microseconds
            "2026-08-10 12:34:56.789Z",
            "2026-08-10T12:34:56.789+00:00",
        ],
    )
    def test_parse_rejects_other_precisions(self, text):
        with pytest.raises(ValueError):
            parse_timestamp(text)


class TestFormatCommand:
    def test_plain_arguments_verbatim(self):
        assert format_command(["plotgen", "-v", "run"]) == "plotgen -v run"

    def test_argument_with_space_is_quoted(self):
        assert (
            format_command(["plotgen", "--in", "data dir/x.csv"])
            == 'plotgen --in "data dir/x.csv"'
        )

    def test_inner_quotes_escaped(self):
        assert format_command(["echo", 'say "hi"']) == 'echo "say \\"hi\\""'

    def test_deterministic(self):
        argv = ["a", "b c", 'd"e']
        assert format_command(argv) == format_command(list(argv))

    @settings(max_examples=500)
    @given(
        argv=st.lists(
            st.one_of(
                st.sampled_from(["", '"', "'", "\\", " ", "\t", "a\\b.py", "it's", "ü ß", "\\\""]),
                st.text(),
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_shlex_reads_every_argv_back(self, argv):
        assert shlex.split(format_command(argv)) == argv


class TestResolveGitHead:
    COMMIT = "0123456789abcdef0123456789abcdef01234567"
    OTHER = "fedcba9876543210fedcba9876543210fedcba98"

    def _make_repo(self, root):
        (root / ".git").mkdir()
        return root / ".git"

    def test_symbolic_ref_via_loose_ref_file(self, tmp_path):
        git = self._make_repo(tmp_path)
        (git / "HEAD").write_text("ref: refs/heads/main\n")
        (git / "refs" / "heads").mkdir(parents=True)
        (git / "refs" / "heads" / "main").write_text(self.COMMIT + "\n")
        assert resolve_git_head(tmp_path) == self.COMMIT

    def test_detached_head(self, tmp_path):
        git = self._make_repo(tmp_path)
        (git / "HEAD").write_text(self.COMMIT + "\n")
        assert resolve_git_head(tmp_path) == self.COMMIT

    def test_no_repository_anywhere(self, tmp_path):
        assert resolve_git_head(tmp_path) is None

    def test_walks_upward_to_nearest_repo(self, tmp_path):
        git = self._make_repo(tmp_path)
        (git / "HEAD").write_text(self.COMMIT)
        nested = tmp_path / "a" / "b"
        nested.mkdir(parents=True)
        assert resolve_git_head(nested) == self.COMMIT

    def test_packed_refs_fallback(self, tmp_path):
        git = self._make_repo(tmp_path)
        (git / "HEAD").write_text("ref: refs/heads/main\n")
        (git / "packed-refs").write_text(
            "# pack-refs with: peeled fully-peeled sorted\n"
            f"{self.OTHER} refs/tags/v1.0\n"
            f"^{self.OTHER}\n"
            f"{self.COMMIT} refs/heads/main\n"
        )
        assert resolve_git_head(tmp_path) == self.COMMIT

    def test_unresolvable_ref_is_absent(self, tmp_path):
        git = self._make_repo(tmp_path)
        (git / "HEAD").write_text("ref: refs/heads/gone\n")
        assert resolve_git_head(tmp_path) is None

    def test_garbage_head_is_absent(self, tmp_path):
        git = self._make_repo(tmp_path)
        (git / "HEAD").write_text("not a hash at all\n")
        assert resolve_git_head(tmp_path) is None

    def test_uppercase_hash_normalized_to_lowercase(self, tmp_path):
        git = self._make_repo(tmp_path)
        (git / "HEAD").write_text(self.COMMIT.upper())
        assert resolve_git_head(tmp_path) == self.COMMIT


class TestCaptureRun:
    def test_noop_command(self):
        meta = capture_run([sys.executable, "-c", "pass"], {})
        assert meta.exit_status == 0
        assert meta.end_time >= meta.start_time
        assert meta.username
        assert meta.hostname

    def test_nonzero_exit_recorded(self):
        meta = capture_run([sys.executable, "-c", "import sys; sys.exit(7)"], {})
        assert meta.exit_status == 7

    def test_env_override_reaches_child(self, tmp_path):
        out = tmp_path / "env.txt"
        capture_run(
            [
                sys.executable,
                "-c",
                "import os, pathlib, sys; "
                "pathlib.Path(sys.argv[1]).write_text(os.environ['YPROV_CONTROL'])",
                str(out),
            ],
            {"YPROV_CONTROL": "/some/where/control"},
        )
        assert out.read_text() == "/some/where/control"

    def test_command_string_reflects_original_argv(self):
        meta = capture_run(
            [sys.executable, "-c", "pass"],
            {},
            spawn_argv=[sys.executable, "-c", "pass"],
        )
        assert meta.argv == [sys.executable, "-c", "pass"]
        assert meta.command == format_command([sys.executable, "-c", "pass"])

    def test_unspawnable_command_raises(self):
        with pytest.raises(OSError):
            capture_run(["definitely-not-a-real-binary-zzz"], {})

    def test_empty_argv_rejected(self):
        with pytest.raises(ValueError):
            capture_run([], {})

    def test_timestamps_have_millisecond_precision(self):
        meta = capture_run([sys.executable, "-c", "pass"], {})
        assert meta.start_time.microsecond % 1000 == 0
        assert meta.end_time.microsecond % 1000 == 0

    def test_interrupt_is_forwarded_to_child(self, tmp_path):
        # The child traps SIGINT and exits 42; a SIGINT delivered to the
        # wrapper while it waits must reach the child, not kill the wrapper.
        import signal
        import threading

        ready = tmp_path / "ready"
        child = (
            "import signal, sys, time, pathlib\n"
            "signal.signal(signal.SIGINT, lambda *a: sys.exit(42))\n"
            f"pathlib.Path({str(ready)!r}).touch()\n"
            "time.sleep(30)\n"
        )

        def interrupt_when_ready():
            deadline = time.monotonic() + 10
            while not ready.exists():
                if time.monotonic() > deadline:
                    return
                time.sleep(0.01)
            time.sleep(0.05)
            os.kill(os.getpid(), signal.SIGINT)

        thread = threading.Thread(target=interrupt_when_ready, daemon=True)
        thread.start()
        meta = capture_run([sys.executable, "-c", child], {})
        thread.join(timeout=10)
        assert meta.exit_status == 42
