"""The program the benchmark wraps; copied into each workload tree as main.py.

Usage: python main.py PLAN_JSON

The plan is a JSON list of steps, run in order:

  ["read", REL, REGISTER]   read REL in full; if REGISTER, log it as INPUT
  ["write", REL, KEY, SIZE] write SIZE seeded bytes derived from KEY to REL
  ["end_run"]               close the current bundle (END_RUN)

Every directive is appended through its own open of $YPROV_CONTROL, the
way a small user helper would do it. Bytes come from `payload`, never from
os.urandom, so the benchmark knows every digest in advance. Reads and
writes stream in 1 MiB chunks, so this process stays small next to the
wrapper.
"""

import json
import os
import random
import sys

BLOCK = 1 << 20


def payload(key, size):
    """Yield SIZE deterministic bytes for KEY, in chunks of at most 1 MiB.

    One seeded block is drawn per key; later chunks are rotations of it,
    which keeps generating 100 MB cheap while every chunk differs.
    """
    block = random.Random(key).randbytes(min(size, BLOCK))
    offset = 0
    index = 0
    while offset < size:
        n = min(BLOCK, size - offset)
        shift = (index * 4099) % len(block)
        yield (block[shift:] + block[:shift])[:n]
        offset += n
        index += 1


def directive(line):
    with open(os.environ["YPROV_CONTROL"], "a", encoding="utf-8") as control:
        control.write(line + "\n")


def main(plan_path):
    with open(plan_path, encoding="utf-8") as handle:
        steps = json.load(handle)
    for step in steps:
        if step[0] == "read":
            _, rel, register = step
            with open(rel, "rb") as source:
                while source.read(BLOCK):
                    pass
            if register:
                directive(f"INPUT\t{rel}")
        elif step[0] == "write":
            _, rel, key, size = step
            os.makedirs(os.path.dirname(rel) or ".", exist_ok=True)
            with open(rel, "wb") as sink:
                for chunk in payload(key, size):
                    sink.write(chunk)
        elif step[0] == "end_run":
            directive("END_RUN")
        else:
            raise SystemExit(f"unknown plan step {step[0]!r}")


if __name__ == "__main__":
    main(sys.argv[1])
