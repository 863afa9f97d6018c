"""Trace transcript parser tests against hand-annotated fixtures."""

import os
import re
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from provwrap import (
    Category,
    EventKind,
    RunConfig,
    TraceParseError,
    classify,
    parse_trace_stream,
    take_snapshot,
)
from provwrap import monitor
from provwrap.classify import DEFAULT_EXCLUDES, exclusion_patterns, watched_roots
from provwrap.cli import TraceBackend
from provwrap.monitor import _QUOTED, sha256_file

FIXTURES = Path(__file__).parent / "fixtures"

READ = EventKind.READ_INTENT
WRITE = EventKind.WRITE_INTENT

# Hand annotation of tests/fixtures/trace_annotated.txt, line by line.
# (path, kind, pid) in emission order; unfinished calls emit at their
# resume line.
ANNOTATED_EVENTS = [
    ("data/input_a.csv", READ, 12001),
    ("data/input_b.csv", READ, 12001),
    ("settings.yaml", READ, 12001),
    ("data/input_c.csv", READ, 12001),
    ("lib/helper.py", READ, 12002),
    ("out/plot_raw.png", WRITE, 12002),
    ("cache/tiles.bin", WRITE, 12001),
    ("out/summary.txt", WRITE, 12001),
    ("logs/run.log", WRITE, 12001),
    ("data/with space.csv", READ, 12001),
    ("data/tab\tsep.tsv", READ, 12001),
    ("data/café.csv", READ, 12001),
    ('data/quote"name.csv', READ, 12001),
    ("data/back\\slash.csv", READ, 12001),
    ("data/new\nline.csv", READ, 12001),
    ("/usr/lib/python3.10/encodings/utf_8.py", READ, 12001),
    ("tmp/scratch_a.dat", WRITE, 12002),
    ("assets/styles.css", READ, 12001),
    ("weird\\qescape.txt", READ, 12001),
    ("data/input_a.csv", READ, 12001),
    ("legacy.cfg", READ, 12001),
    ("out/report.html", WRITE, 12001),
    ("nested/dir/deep/file.json", READ, 12001),
    ("out/table.csv", WRITE, 12001),
    ("README.md", READ, 12001),
    ("out/plot_final.png", WRITE, 12001),
    ("shared/config.ini", READ, 12003),
    ("shared/theme.ini", READ, 12003),
    ("data/octalA.txt", READ, 12001),
    ("final/metrics.json", READ, 12001),
    ("out/metrics_out.json", WRITE, 12001),
    ("trailing.txt", READ, 12001),
    ("the_end.csv", READ, 12001),
    ("post/blank.txt", READ, 12001),
]

# Hand annotation of tests/fixtures/trace_escapes.txt: strace's string_quote
# prints \f \r \v, and octal with 1 to 3 digits (3 only before an octal
# digit); \777 is no byte and stays verbatim, and a directory open (the
# O_DIRECTORY line) gives no event.
ESCAPE_EVENTS = [
    ("esc/carriage\rreturn.csv", READ, 4001),
    ("esc/vertical\vtab.csv", READ, 4001),
    ("esc/form\ffeed.csv", READ, 4001),
    ("esc/one\x01.csv", READ, 4001),
    ("esc/escape\x1bx.csv", READ, 4001),
    ("esc/escape\x1b1.png", WRITE, 4001),
    ("esc/café.csv", READ, 4002),
    ("esc/bad\\777.csv", READ, 4001),
    ("esc/ends\x01", READ, 4001),
]


def _read_fixture(name):
    with open(FIXTURES / name, encoding="utf-8") as handle:
        return handle.readlines()


def test_mixed_12_line_fixture():
    events = parse_trace_stream(_read_fixture("trace_mixed_12.txt"))
    assert len(events) == 9
    assert sum(1 for e in events if e.kind is WRITE) == 1
    assert [str(e.path) for e in events] == [
        "results.csv",
        "config.yaml",
        "data/series.csv",
        "lib/helper.py",
        "example.png",
        "notes\ttab.txt",
        "café.txt",
        'with "quotes".txt',
        "plain.txt",
    ]
    assert events[2].pid == 5678
    assert events[3].pid == 1234
    assert events[4].kind is WRITE


def test_annotated_fixture_matches_hand_annotation():
    events = parse_trace_stream(_read_fixture("trace_annotated.txt"))
    got = [(str(e.path), e.kind, e.pid) for e in events]
    assert got == ANNOTATED_EVENTS


def test_annotated_fixture_parses_identically_in_strict_mode():
    lenient = parse_trace_stream(_read_fixture("trace_annotated.txt"))
    strict = parse_trace_stream(_read_fixture("trace_annotated.txt"), strict=True)
    assert strict == lenient


def test_escape_fixture_matches_hand_annotation_in_both_modes(caplog):
    lenient = parse_trace_stream(_read_fixture("trace_escapes.txt"))
    assert [(str(e.path), e.kind, e.pid) for e in lenient] == ESCAPE_EVENTS
    assert parse_trace_stream(_read_fixture("trace_escapes.txt"), strict=True) == lenient
    warnings = [r.getMessage() for r in caplog.records if "unknown escape" in r.getMessage()]
    assert warnings == ["trace line 9: unknown escape \\777 kept verbatim"] * 2


def test_out_of_range_octal_escape_is_kept_verbatim(caplog):
    line = 'openat(AT_FDCWD, "bad\\777", O_RDONLY) = 3'
    for strict in (False, True):
        caplog.clear()
        events = parse_trace_stream([line], strict=strict)
        assert [str(e.path) for e in events] == ["bad\\777"]
        assert sum("unknown escape" in r.getMessage() for r in caplog.records) == 1


def test_directory_opens_give_no_record(tmp_path):
    (tmp_path / "data").mkdir()
    flags = "O_RDONLY|O_NONBLOCK|O_CLOEXEC|O_DIRECTORY"
    lines = [
        f'openat(AT_FDCWD, "{tmp_path}", {flags}) = 3',
        f'openat(AT_FDCWD, "data", {flags}) = 4',
    ]
    events = parse_trace_stream(lines, strict=True, cwd=tmp_path)
    assert events == []
    segments = classify(events, RunConfig(), tmp_path)
    assert [segment.records for segment in segments] == [[]]


@pytest.mark.parametrize(
    "flags", ["O_RDONLY|O_CLOEXEC", "O_RDONLY|O_PATH"], ids=["read", "o-path"]
)
def test_an_open_of_something_not_a_regular_file_gives_no_record(tmp_path, flags):
    # shutil.rmtree and os.open(dir) for a dir_fd open directories without
    # O_DIRECTORY; an O_PATH open names a path without reading it
    (tmp_path / "assets").mkdir()
    os.mkfifo(tmp_path / "pipe")
    (tmp_path / "a.csv").write_text("a")
    lines = [
        f'openat(AT_FDCWD, "assets", {flags}) = 3',
        f'openat(AT_FDCWD, "pipe", {flags}) = 4',
        f'openat(AT_FDCWD, "a.csv", {flags}) = 5',
        f'openat(AT_FDCWD, "gone.csv", {flags}) = 6',
    ]
    events = parse_trace_stream(lines, strict=True, cwd=tmp_path)
    [segment] = classify(events, RunConfig(), tmp_path)
    records = {r.bundle_relative_path: r.skip_reason for r in segment.records}
    # a file that no longer exists keeps its record
    assert records == {"inputs/a.csv": None, "inputs/gone.csv": "vanished"}
    assert segment.errors == []


def test_openat_from_a_directory_fd_gives_no_event(tmp_path, caplog):
    # fd 7 names sub/, which the transcript does not say: resolving
    # "rel.csv" from cwd would copy ./rel.csv, a file the child never read
    (tmp_path / "sub").mkdir()
    (tmp_path / "rel.csv").write_text("cwd")
    (tmp_path / "sub" / "rel.csv").write_text("sub")
    lines = [
        'openat(AT_FDCWD, "sub", O_RDONLY|O_DIRECTORY) = 7',
        'openat(7, "rel.csv", O_RDONLY) = 8',
        '123 openat(7, "out.png", O_WRONLY|O_CREAT|O_TRUNC, 0666 <unfinished ...>',
        "123 <... openat resumed>) = 9",
        f'openat(7, "{tmp_path}/abs.csv", O_RDONLY) = 10',
        'openat(AT_FDCWD, "rel.csv", O_RDONLY) = 11',
    ]
    for strict in (False, True):
        caplog.clear()
        events = parse_trace_stream(lines, strict=strict, cwd=tmp_path)
        assert [(e.path.name, e.kind) for e in events] == [
            ("abs.csv", READ), ("rel.csv", READ)
        ]
        assert events[1].path == tmp_path / "rel.csv"
        warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert len(warnings) == 1
        assert "2 openat" in warnings[0] and "line 2" in warnings[0]


def test_events_follow_transcript_order():
    # a call emits at its completing line, so any leading part of the
    # transcript gives a leading part of the events
    lines = _read_fixture("trace_annotated.txt")
    events = parse_trace_stream(lines)
    for cut in range(len(lines) + 1):
        head = parse_trace_stream(lines[:cut])
        assert head == events[: len(head)], f"first {cut} lines"


def test_failed_open_is_ignored():
    line = 'openat(AT_FDCWD, "missing.csv", O_RDONLY) = -1 ENOENT (No such file or directory)'
    assert parse_trace_stream([line]) == []


def test_simple_read_and_write_intents():
    events = parse_trace_stream(
        [
            'openat(AT_FDCWD, "results.csv", O_RDONLY|O_CLOEXEC) = 3',
            'openat(AT_FDCWD, "out.png", O_WRONLY|O_CREAT|O_TRUNC, 0666) = 4',
            'creat("scratch.bin", 0644) = 5',
            'openat(AT_FDCWD, "db.sqlite", O_RDWR) = 6',
            'openat(AT_FDCWD, "log.txt", O_WRONLY|O_APPEND) = 7',
        ]
    )
    assert [(str(e.path), e.kind) for e in events] == [
        ("results.csv", READ),
        ("out.png", WRITE),
        ("scratch.bin", WRITE),
        ("db.sqlite", WRITE),
        ("log.txt", WRITE),
    ]


def test_relative_paths_resolve_against_cwd(tmp_path):
    events = parse_trace_stream(
        ['openat(AT_FDCWD, "a.csv", O_RDONLY) = 3'], cwd=tmp_path
    )
    assert events[0].path == (tmp_path / "a.csv").resolve()


def test_non_open_lines_never_emit():
    lines = [
        "read(3, \"data\", 4096) = 4",
        "close(3) = 0",
        "open_by_handle_at(5, {handle_bytes=8}, O_RDONLY) = 6",
        "+++ exited with 0 +++",
    ]
    assert parse_trace_stream(lines) == []


@pytest.mark.parametrize(
    "lines, lineno",
    [
        (["<... openat resumed>) = 3"], 1),
        (
            [
                'openat(AT_FDCWD, "ok.txt", O_RDONLY) = 3',
                'openat(AT_FDCWD, "broken.txt O_RDONLY) = 4',
            ],
            2,
        ),
        (['openat(AT_FDCWD, "x.txt") = 3'], 1),
        (
            [
                'openat(AT_FDCWD, "fine.csv", O_RDONLY) = 3',
                'openat(AT_FDCWD, "odd.txt", O_RDONLY) = banana',
            ],
            2,
        ),
        (["openat(AT_FDCWD, 0x7ffd, O_RDONLY) = 3"], 1),
    ],
)
def test_strict_mode_rejects_malformed_lines_with_line_number(lines, lineno):
    with pytest.raises(TraceParseError, match=f"line {lineno}"):
        parse_trace_stream(lines, strict=True)
    # lenient mode skips the same lines
    events = parse_trace_stream(lines)
    assert all("broken" not in str(e.path) for e in events)


def test_lenient_mode_skips_unpaired_resumed():
    events = parse_trace_stream(
        [
            "<... openat resumed>) = 3",
            'openat(AT_FDCWD, "fine.csv", O_RDONLY) = 4',
        ]
    )
    assert [str(e.path) for e in events] == ["fine.csv"]


def test_unfinished_without_resume_emits_nothing():
    events = parse_trace_stream(
        ['12 openat(AT_FDCWD, "pending.txt", O_RDONLY <unfinished ...>']
    )
    assert events == []


def test_undecodable_raw_byte_in_an_escaped_path_keeps_the_parse():
    # a transcript read with surrogateescape carries a raw 0xff as U+DCFF
    lines = [
        'openat(AT_FDCWD, "a\\"b\udcff.csv", O_RDONLY) = 3',
        'openat(AT_FDCWD, "out\udcff.csv", O_WRONLY|O_CREAT, 0666) = 4',
        'openat(AT_FDCWD, "fine.csv", O_RDONLY) = 5',
    ]
    events = parse_trace_stream(lines, strict=True)
    assert [str(e.path) for e in events] == [
        'a"b\udcff.csv',
        "out\udcff.csv",
        "fine.csv",
    ]
    assert os.fsencode(str(events[0].path)) == b'a"b\xff.csv'


def _scan_quoted(text):
    """The character loop the quoted-string pattern replaced, kept as its oracle."""
    start = text.find('"')
    if start < 0:
        return None
    i = start + 1
    while i < len(text):
        if text[i] == "\\":
            i += 2
            continue
        if text[i] == '"':
            return text[start + 1 : i], i + 1
        i += 1
    return None


@given(st.text(alphabet='"\\a,( \n\u00e9', max_size=14))
def test_quoted_pattern_agrees_with_the_character_scan(text):
    # the parser takes the first quoted string of a call as its path
    first = re.match('[^"]*' + _QUOTED, text)
    assert (first and (first[1], first.end())) == _scan_quoted(text)


# The quoted-string pattern before its loop was unrolled, kept as its oracle.
_ALTERNATING_QUOTED = r'"((?:[^"\\]|\\(?s:.))*)"'
_CALL_TEXT = st.lists(
    st.sampled_from(['"', "\\", ",", "(", ")", "=", " ", "\n", "0", "3", "-1", "42", "a"]),
    max_size=24,
).map("".join)


@given(_CALL_TEXT)
def test_unrolled_quoted_pattern_agrees_with_the_alternating_one(text):
    assert _QUOTED != _ALTERNATING_QUOTED and _QUOTED in monitor._COMPLETED.pattern
    old_completed = re.compile(
        monitor._COMPLETED.pattern.replace(_QUOTED, _ALTERNATING_QUOTED), monitor._COMPLETED.flags
    )
    for old, new in [
        (re.compile(_ALTERNATING_QUOTED), re.compile(_QUOTED)),
        (old_completed, monitor._COMPLETED),
    ]:
        for match in (old.match, old.fullmatch, old.search):
            found = match(text)
            again = getattr(new, match.__name__)(text)
            assert (found and (found.span(), found.groups())) == (
                again and (again.span(), again.groups())
            )


# --- resolving each distinct path once ------------------------------------------

def _build_universe(root: Path) -> tuple[Path, list[str]]:
    """A working directory with a symlinked directory and a symlinked leaf."""
    cwd = root / "cwd"
    (cwd / "sub").mkdir(parents=True)
    (cwd / "a.txt").write_text("a")
    (cwd / "sub" / "b.txt").write_text("b")
    (cwd / "link").symlink_to("sub")
    (cwd / "leaf.txt").symlink_to("sub/b.txt")
    (root / "outside.txt").write_text("o")
    relative = [
        "a.txt",
        "./a.txt",
        "sub/b.txt",
        "sub/../a.txt",
        "link/b.txt",
        "link/../a.txt",
        "leaf.txt",
        "../outside.txt",
        "missing/new.txt",
        "café.csv",
        'q"uote.txt',
        "back\\slash.txt",
        "tab\tname.txt",
        os.fsdecode(b"bad\xff.txt"),
        "link/..",
        "link/.",
    ]
    return cwd, relative + [str(cwd / rel) for rel in relative[:8]]


def _quote(path: str, octal: list[bool]) -> bytes:
    """Quote path the way strace prints it, octal-escaping bytes where octal says."""
    out = bytearray()
    for index, byte in enumerate(os.fsencode(path)):
        if byte in (0x22, 0x5C):
            out += b"\\" + bytes([byte])
        elif byte < 0x20 or octal[index % len(octal)]:
            out += f"\\{byte:03o}".encode()
        else:
            out.append(byte)
    return bytes(out)


def _resolved_by_directory(cwd: Path, path: str) -> Path:
    """The rule stated per event: realpath of the directory, then the leaf as named."""
    joined = path if path.startswith("/") else f"{cwd}/{path}"
    directory, _, leaf = joined.rpartition("/")
    if leaf in ("", ".", ".."):
        return Path(os.path.realpath(joined))
    return Path(os.path.realpath(directory or "/"), leaf)


_CALL = st.tuples(
    st.integers(min_value=0, max_value=23),  # index into the path universe
    st.sampled_from(["read", "write", "creat", "failed"]),
    st.lists(st.booleans(), min_size=1, max_size=5),  # octal-escape pattern
    st.sampled_from([None, 7, 8]),
)


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(calls=st.lists(_CALL, max_size=30))
def test_parse_equals_per_event_resolve_oracle(tmp_path_factory, calls):
    cwd, universe = _build_universe(tmp_path_factory.mktemp("universe"))
    lines, expected = [], []
    for index, kind, octal, pid in calls:
        path = universe[index]
        quoted = _quote(path, octal)
        prefix = b"" if pid is None else f"{pid} ".encode()
        if kind == "creat":
            call = b'creat("' + quoted + b'", 0644) = 3'
        else:
            flags = b"O_WRONLY|O_CREAT|O_TRUNC" if kind == "write" else b"O_RDONLY"
            result = b"-1 ENOENT (No such file or directory)" if kind == "failed" else b"3"
            call = b'openat(AT_FDCWD, "' + quoted + b'", ' + flags + b") = " + result
        lines.append((prefix + call + b"\n").decode("utf-8", "surrogateescape"))
        if kind != "failed":
            write = WRITE if kind in ("write", "creat") else READ
            expected.append((_resolved_by_directory(cwd, path), write, pid))

    events = parse_trace_stream(lines, strict=True, cwd=cwd)
    assert [(e.path, e.kind, e.pid) for e in events] == expected


def test_lstat_calls_bounded_by_distinct_paths(tmp_path, monkeypatch):
    cwd, universe = _build_universe(tmp_path)
    distinct = [
        'openat(AT_FDCWD, "' + _quote(path, [False]).decode("utf-8", "surrogateescape")
        + '", O_RDONLY) = 3'
        for path in universe
    ]
    real_lstat = os.lstat
    calls = []

    def counting(path, *args, **kwargs):
        calls.append(path)
        return real_lstat(path, *args, **kwargs)

    monkeypatch.setattr(os, "lstat", counting)
    counts = []
    for repeats in (1, 25):
        calls.clear()
        events = parse_trace_stream(distinct * repeats, cwd=cwd)
        assert len(events) == len(distinct) * repeats
        counts.append(len(calls))
    assert counts[0] > 0
    assert counts[1] == counts[0]


def _traced(lines, roots, config, scratch):
    """Events the trace backend keeps from a transcript, as `cli.run` collects them."""
    scratch.mkdir(exist_ok=True)
    (scratch / "trace").write_text("".join(lines), encoding="utf-8", errors="surrogateescape")
    events, _ = TraceBackend(scratch, roots, config).collect(scratch / "control")
    return events


def test_path_fixture_gives_records_under_the_names_the_program_used(tmp_path):
    base = tmp_path.resolve()
    cwd, data, shared = base / "work", base / "data", base / "shared"
    for directory in (cwd / "sub", data, shared / "cache"):
        directory.mkdir(parents=True)
    (cwd / "a.csv").write_text("a\n")
    (cwd / "sub" / "b.csv").write_text("b\n")
    (cwd / "ldir").symlink_to("sub")
    (data / "d.csv").write_text("target\n")
    (cwd / "link_out.csv").symlink_to("../data/d.csv")
    (shared / "cache" / "f.csv").write_text("cached\n")
    (shared / "g.csv").write_text("written\n")
    config = RunConfig(watch_dirs=(Path("../shared"),), excludes=DEFAULT_EXCLUDES + ("cache",))
    roots = watched_roots(config, cwd)
    events = _traced(_read_fixture("trace_paths.txt"), roots, config, base / "scratch")
    [segment] = classify(events, config, cwd, roots=roots)
    # a symlinked leaf keeps its name (its content is the target's), a
    # symlinked directory and ".." resolve, shared/cache is excluded by its
    # name in its own root, and reads outside every root are dropped
    assert [
        (r.bundle_relative_path, r.category, r.original_path, r.sha256, r.copied)
        for r in segment.records
    ] == [
        ("inputs/link_out.csv", Category.INPUT, cwd / "link_out.csv",
         sha256_file(data / "d.csv"), True),
        ("inputs/sub/b.csv", Category.INPUT, cwd / "sub" / "b.csv",
         sha256_file(cwd / "sub" / "b.csv"), True),
        ("inputs/a.csv", Category.INPUT, cwd / "a.csv", sha256_file(cwd / "a.csv"), True),
        ("_external" + str(shared / "g.csv"), Category.OUTPUT, shared / "g.csv",
         sha256_file(shared / "g.csv"), True),
    ]
    assert segment.errors == []


def _scope_universe(base: Path) -> tuple[Path, list[str]]:
    """cwd inside a watch root `top` (`--watch ..`), beside a watch root
    `side`, with symlinked leaves and directories, `cache/` directories
    and a bundle directory; returns cwd and path texts a program could use."""
    top = base / "top"
    cwd, side = top / "work", top / "side"
    for directory in (cwd / "sub", cwd / "cache", cwd / "prov_0", side / "cache",
                      top / "cache", base / "far"):
        directory.mkdir(parents=True)
    for path in (cwd / "a.csv", cwd / "sub" / "b.csv", cwd / "cache" / "wc.csv",
                 cwd / "prov_0" / "p.csv", side / "s.csv", side / "cache" / "sc.csv",
                 top / "t.csv", top / "cache" / "tc.csv", base / "far" / "f.csv"):
        path.write_text(path.name)
    (cwd / "ldir").symlink_to("sub")
    (cwd / "leaf.csv").symlink_to("../side/s.csv")
    (cwd / "far.csv").symlink_to("../../far/f.csv")
    (side / "lside").symlink_to("../work/sub")
    texts = [
        "a.csv", "./a.csv", "sub/../a.csv", "../work/a.csv", "sub/b.csv", "ldir/b.csv",
        "cache/wc.csv", "prov_0/p.csv", "leaf.csv", "far.csv", "../t.csv",
        "../cache/tc.csv", "../side/s.csv", "../side/cache/sc.csv", "../side/lside/b.csv",
        "../../far/f.csv",
    ]
    return cwd, texts + [str(cwd / text) for text in texts[:6]]


@settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    picks=st.lists(st.integers(min_value=0, max_value=21), min_size=1, max_size=8),
    excludes=st.lists(
        st.sampled_from(["cache", "sub", "leaf.csv", "s.csv", "*/b.csv", "t.*"]), max_size=3
    ),
)
def test_traced_reads_are_recorded_exactly_when_the_walk_lists_them(
    tmp_path_factory, picks, excludes
):
    base = tmp_path_factory.mktemp("scope").resolve()
    cwd, texts = _scope_universe(base)
    config = RunConfig(
        watch_dirs=(Path("../side"), Path("..")), excludes=DEFAULT_EXCLUDES + tuple(excludes)
    )
    roots = watched_roots(config, cwd)
    assert roots == [cwd, cwd.parent / "side", cwd.parent]
    listed = {
        root: take_snapshot(root, exclusion_patterns(config, root, roots)).entries
        for root in roots
    }
    lines = [f'7 openat(AT_FDCWD, "{texts[i]}", O_RDONLY) = 3\n' for i in picks]
    events = _traced(lines, roots, config, base / "scratch")
    [segment] = classify(events, config, cwd, roots=roots)
    recorded = {record.original_path for record in segment.records}
    expected = set()
    for i in picks:
        path = _resolved_by_directory(cwd, texts[i])
        holding = [root for root in roots if root in path.parents]
        if not holding:
            continue  # outside every root: the trace backend drops it
        root = max(holding, key=lambda root: len(root.parts))
        if path.relative_to(root).as_posix() in listed[root]:
            expected.add(path)
    assert recorded == expected
