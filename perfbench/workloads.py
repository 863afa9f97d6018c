"""Seeded generators for the three benchmark workloads.

Each generator lays out a working tree (the directory provwrap runs in and
watches), a plan for the wrapped child (`child.py`, copied in as main.py)
and the ground truth every bundle is checked against: for each expected
bundle, the map from bundle path to (role, size, sha256). The seed picks
file contents, which files are read or written, names and transcript
order; sizes and counts are fixed, so every seed does the same amount of
work and the layer counters repeat exactly.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shlex
import shutil
import stat
import sys
from dataclasses import dataclass, field
from pathlib import Path

from child import payload
from strace_standin import CONTROL_PLACEHOLDER, strace_quote

HERE = Path(__file__).resolve().parent

# diff-tree: a wide tree; the snapshot walk, exclusion and hashing dominate.
TREE_DIRS = 50
TREE_FILES_PER_DIR = 100
TREE_FILE_SIZE = 19_000
TREE_GIT_FILES = 500
TREE_READS = 200
TREE_MODIFIES = 50
TREE_CREATES = 50
TREE_OUT_SIZE = 20_000

# diff-bulk: a small tree around one large input and one large output.
BULK_SMALL_FILES = 20
BULK_IN_SIZE = 200_000_000
BULK_OUT_SIZE = 100_000_000

# trace-charts: a replayed syscall transcript split into chart segments.
CHART_LINES = 8_000
CHART_DATA_FILES = 150
CHART_SEGMENT_FILES = 100
CHART_DATA_SIZE = 2_000
CHART_NON_ASCII_EVERY = 10
CHART_EXT_FILES = 300
CHART_SEGMENTS = 8
CHART_OUTPUTS = 100
CHART_OUT_SIZE = 3_000
CHART_PAIRS = 160

Expected = dict[str, tuple[str, int, str]]


@dataclass
class Workload:
    """A generated workload: where to run provwrap, how, and what to expect."""

    root: Path
    flags: list[str]
    plan: Path
    expected: list[Expected]
    env: dict[str, str] = field(default_factory=dict)
    restore: list[tuple[str, str, int]] = field(default_factory=list)
    created: list[str] = field(default_factory=list)
    stats: dict[str, int] = field(default_factory=dict)
    transcript: Path | None = None

    def command(self) -> list[str]:
        return [sys.executable, "main.py", str(self.plan)]

    def reset(self) -> None:
        """Bring the tree back to its generated state (untimed)."""
        for rel, key, size in self.restore:
            write_payload(self.root / rel, key, size)
        for rel in self.created:
            (self.root / rel).unlink(missing_ok=True)
        for entry in self.root.iterdir():
            if entry.name.startswith("prov_"):
                if entry.is_dir():
                    shutil.rmtree(entry)
                else:
                    entry.unlink()


def write_payload(path: Path, key: str, size: int) -> str:
    """Write the seeded bytes for key to path and return their sha256."""
    path.parent.mkdir(parents=True, exist_ok=True)
    digest = hashlib.sha256()
    with open(path, "wb") as handle:
        for chunk in payload(key, size):
            handle.write(chunk)
            digest.update(chunk)
    return digest.hexdigest()


def payload_digest(key: str, size: int) -> str:
    digest = hashlib.sha256()
    for chunk in payload(key, size):
        digest.update(chunk)
    return digest.hexdigest()


def _common(root: Path, seed: int, git_files: int) -> tuple[str, int]:
    """Copy the child in as main.py and add a local .git.

    The .git directory is excluded by provwrap's defaults; it also stops
    the git-commit lookup from walking up into whatever repository holds
    the checkout, so every run records the same seeded commit.
    Returns main.py's sha256 and size.
    """
    root.mkdir(parents=True)
    source = (HERE / "child.py").read_bytes()
    (root / "main.py").write_bytes(source)
    git = root / ".git"
    (git / "refs" / "heads").mkdir(parents=True)
    (git / "HEAD").write_text("ref: refs/heads/main\n", encoding="ascii")
    commit = hashlib.sha1(f"{seed}:commit".encode()).hexdigest()
    (git / "refs" / "heads" / "main").write_text(commit + "\n", encoding="ascii")
    for i in range(git_files):
        name = hashlib.sha1(f"{seed}:object:{i}".encode()).hexdigest()
        write_payload(git / "objects" / name[:2] / name[2:], f"{seed}:git:{i}", 1_500)
    return hashlib.sha256(source).hexdigest(), len(source)


def _write_plan(path: Path, steps: list) -> None:
    path.write_text(json.dumps(steps), encoding="utf-8")


def build_diff_tree(work: Path, seed: int) -> Workload:
    root = work / "tree"
    main_sha, main_size = _common(root, seed, TREE_GIT_FILES)
    rels = [
        f"data/d{d:02d}/f{f:03d}.dat"
        for d in range(TREE_DIRS)
        for f in range(TREE_FILES_PER_DIR)
    ]
    content = {}
    for rel in rels:
        key = f"{seed}:tree:{rel}"
        content[rel] = (key, write_payload(root / rel, key, TREE_FILE_SIZE))
    rng = random.Random(f"{seed}:diff-tree")
    chosen = rng.sample(rels, TREE_READS + TREE_MODIFIES)
    reads, modifies = chosen[:TREE_READS], chosen[TREE_READS:]
    creates = [f"out/result_{i:02d}.bin" for i in range(TREE_CREATES)]

    expected: Expected = {"src/main.py": ("Source", main_size, main_sha)}
    steps: list = []
    for rel in reads:
        steps.append(["read", rel, True])
        expected[f"inputs/{rel}"] = ("Input", TREE_FILE_SIZE, content[rel][1])
    for rel, size in [(r, TREE_FILE_SIZE) for r in modifies] + [
        (r, TREE_OUT_SIZE) for r in creates
    ]:
        key = f"{seed}:written:{rel}"
        steps.append(["write", rel, key, size])
        expected[f"outputs/{rel}"] = ("Output", size, payload_digest(key, size))
    plan = work / "plan.json"
    _write_plan(plan, steps)
    return Workload(
        root=root,
        flags=["--backend", "diff"],
        plan=plan,
        expected=[expected],
        restore=[(rel, content[rel][0], TREE_FILE_SIZE) for rel in modifies],
        created=creates,
        stats={
            "tree_files": len(rels) + 1,
            "tree_bytes": len(rels) * TREE_FILE_SIZE + main_size,
            "excluded_git_files": TREE_GIT_FILES + 2,
            "files_read": TREE_READS,
            "bytes_read": TREE_READS * TREE_FILE_SIZE,
            "files_modified": TREE_MODIFIES,
            "files_created": TREE_CREATES,
            "bytes_written": TREE_MODIFIES * TREE_FILE_SIZE + TREE_CREATES * TREE_OUT_SIZE,
        },
    )


def build_diff_bulk(work: Path, seed: int) -> Workload:
    root = work / "tree"
    main_sha, main_size = _common(root, seed, 0)
    for i in range(BULK_SMALL_FILES):
        write_payload(root / f"data/small/s{i:02d}.dat", f"{seed}:small:{i}", TREE_FILE_SIZE)
    big_in, big_out = "data/big.bin", "out/result.bin"
    in_sha = write_payload(root / big_in, f"{seed}:big-in", BULK_IN_SIZE)
    out_key = f"{seed}:big-out"
    plan = work / "plan.json"
    _write_plan(plan, [["read", big_in, True], ["write", big_out, out_key, BULK_OUT_SIZE]])
    expected: Expected = {
        "src/main.py": ("Source", main_size, main_sha),
        f"inputs/{big_in}": ("Input", BULK_IN_SIZE, in_sha),
        f"outputs/{big_out}": ("Output", BULK_OUT_SIZE, payload_digest(out_key, BULK_OUT_SIZE)),
    }
    return Workload(
        root=root,
        flags=["--backend", "diff", "--max-file-mb", "500"],
        plan=plan,
        expected=[expected],
        created=[big_out],
        stats={
            "tree_files": BULK_SMALL_FILES + 2,
            "tree_bytes": BULK_SMALL_FILES * TREE_FILE_SIZE + BULK_IN_SIZE + main_size,
            "files_read": 1,
            "bytes_read": BULK_IN_SIZE,
            "files_created": 1,
            "bytes_written": BULK_OUT_SIZE,
        },
    )


def _install_strace_shim(work: Path, transcript: Path) -> Path:
    """Write work/bin/strace, which runs the stand-in on the transcript."""
    bin_dir = work / "bin"
    bin_dir.mkdir()
    argv = [sys.executable, str(HERE / "strace_standin.py"), str(transcript)]
    shim = bin_dir / "strace"
    shim.write_text(f'#!/bin/sh\nexec {shlex.join(argv)} "$@"\n', encoding="utf-8")
    shim.chmod(shim.stat().st_mode | stat.S_IXUSR | stat.S_IXGRP | stat.S_IXOTH)
    return bin_dir


def build_trace_charts(work: Path, seed: int) -> Workload:
    root = work / "tree"
    main_sha, main_size = _common(root, seed, 0)
    rng = random.Random(f"{seed}:trace-charts")

    stems = ["données", "température", "série", "größe", "温度", "数据"]
    plain, accented = [], []
    for i in range(CHART_DATA_FILES):
        if i % CHART_NON_ASCII_EVERY == 0:
            rel, group = f"data/{rng.choice(stems)}_{i:04d}.csv", accented
        else:
            rel, group = f"data/table_{i:04d}.csv", plain
        group.append((rel, write_payload(root / rel, f"{seed}:data:{i}", CHART_DATA_SIZE)))

    ext = work / "ext" / "lib" / "python3" / "site-packages"
    ext_paths = []
    for i in range(CHART_EXT_FILES):
        path = ext / f"pkg{i % 30:02d}" / f"mod{i:03d}.py"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"# module\n")
        ext_paths.append(str(path))

    outputs = [f"out/chart_{k:03d}.svg" for k in range(CHART_OUTPUTS)]
    pids = [rng.randrange(2_000, 60_000) for _ in range(3)]
    fixed = CHART_OUTPUTS + CHART_SEGMENTS - 1
    per_segment = (CHART_LINES - fixed - CHART_PAIRS) // CHART_SEGMENTS
    pairs_per_segment = CHART_PAIRS // CHART_SEGMENTS

    def open_line(path: str, flags: str, result: str) -> str:
        return f'openat(AT_FDCWD, "{path}", {flags}) = {result}'

    lines: list[str] = []
    expected: list[Expected] = []
    steps: list = []
    for segment in range(CHART_SEGMENTS):
        bundle: Expected = {"src/main.py": ("Source", main_size, main_sha)}
        body: list[tuple[str, str]] = []  # (kind, text without the pid)
        # A fixed number of distinct data files per segment, one in ten
        # non-ASCII, so every seed copies the same number of files.
        mine = rng.sample(plain, CHART_SEGMENT_FILES - CHART_SEGMENT_FILES // CHART_NON_ASCII_EVERY)
        mine += rng.sample(accented, CHART_SEGMENT_FILES // CHART_NON_ASCII_EVERY)
        for rel, sha in mine:
            bundle[f"inputs/{rel}"] = ("Input", CHART_DATA_SIZE, sha)
        reads = mine + [rng.choice(mine) for _ in range(per_segment // 3 - len(mine))]
        for i in range(per_segment):
            third = i % 3
            if third == 0:
                missing = f"{rng.choice(ext_paths)[:-3]}.cpython-311-x86_64-linux-gnu.so"
                body.append(("line", open_line(missing, "O_RDONLY|O_CLOEXEC",
                                               "-1 ENOENT (No such file or directory)")))
            elif third == 1:
                body.append(("line", open_line(rng.choice(ext_paths), "O_RDONLY|O_CLOEXEC", "3")))
            elif i // 3 < len(reads):
                rel = reads[i // 3][0]
                # Every fifth data open names the file by its absolute path.
                shown = strace_quote(str(root / rel) if i % 5 == 0 else rel)
                body.append(("line", open_line(shown, "O_RDONLY|O_CLOEXEC", "4")))
        for _ in range(pairs_per_segment):
            body.append(("pair", strace_quote(rng.choice(mine)[0])))
        charts = [o for k, o in enumerate(outputs) if k * CHART_SEGMENTS // CHART_OUTPUTS == segment]
        for rel in charts:
            key = f"{seed}:chart:{rel}"
            steps.append(["write", rel, key, CHART_OUT_SIZE])
            bundle[f"outputs/{rel}"] = ("Output", CHART_OUT_SIZE, payload_digest(key, CHART_OUT_SIZE))
            body.append(("line", open_line(rel, "O_WRONLY|O_CREAT|O_TRUNC|O_CLOEXEC, 0666", "5")))
        rng.shuffle(body)
        for kind, text in body:
            pid = rng.choice(pids)
            if kind == "line":
                lines.append(f"{pid}  {text}")
                continue
            # An interrupted open, with one line of another pid in between.
            other = rng.choice([p for p in pids if p != pid])
            lines.append(f'{pid}  openat(AT_FDCWD, "{text}", O_RDONLY|O_CLOEXEC <unfinished ...>')
            lines.append(f"{other}  close(3) = 0")
            lines.append(f"{pid}  <... openat resumed>) = 6")
        if segment < CHART_SEGMENTS - 1:
            steps.append(["end_run"])
            flags = "O_WRONLY|O_CREAT|O_APPEND|O_CLOEXEC, 0666"
            lines.append(f"{pids[0]}  {open_line(CONTROL_PLACEHOLDER, flags, '7')}")
        expected.append(bundle)

    transcript = work / "transcript.txt"
    transcript.write_text("\n".join(lines) + "\n", encoding="utf-8")
    plan = work / "plan.json"
    _write_plan(plan, steps)
    bin_dir = _install_strace_shim(work, transcript)
    return Workload(
        root=root,
        flags=["--backend", "trace"],
        plan=plan,
        expected=expected,
        env={"PATH": f"{bin_dir}{os.pathsep}{os.environ.get('PATH', '')}"},
        created=outputs,
        stats={
            "tree_files": CHART_DATA_FILES + 1,
            "tree_bytes": CHART_DATA_FILES * CHART_DATA_SIZE + main_size,
            "non_ascii_data_files": len(range(0, CHART_DATA_FILES, CHART_NON_ASCII_EVERY)),
            "outside_root_files": CHART_EXT_FILES,
            "transcript_lines": len(lines),
            "transcript_bytes": transcript.stat().st_size,
            "segments": CHART_SEGMENTS,
            "files_created": CHART_OUTPUTS,
            "bytes_written": CHART_OUTPUTS * CHART_OUT_SIZE,
        },
        transcript=transcript,
    )


GENERATORS = {
    "diff-tree": build_diff_tree,
    "diff-bulk": build_diff_bulk,
    "trace-charts": build_trace_charts,
}
