"""Replay stand-in for strace, used by the trace-charts workload.

Usage: python strace_standin.py TEMPLATE [STRACE OPTIONS] -o FILE COMMAND [ARG...]

The benchmark puts a `strace` shim that runs this file at the front of
PATH. It writes the pre-generated transcript TEMPLATE to FILE, with every
@CONTROL@ replaced by the escaped $YPROV_CONTROL path, and then execs
COMMAND in its own process, as strace would run it. Options it cannot
honour, a missing `-o FILE` or a missing command make it exit with status
64 before running anything, so a broken set-up shows as a failed run and
never as a fast one.
"""

import os
import sys

CONTROL_PLACEHOLDER = "@CONTROL@"
_FLAGS = {"-f", "-q", "-qq"}
_VALUED = {"-e", "-s", "-o"}
USAGE_EXIT = 64


def strace_quote(text):
    """Escape a path the way strace prints it inside double quotes."""
    out = []
    for byte in os.fsencode(text):
        if byte == 0x22:
            out.append('\\"')
        elif byte == 0x5C:
            out.append("\\\\")
        elif byte == 0x0A:
            out.append("\\n")
        elif byte == 0x09:
            out.append("\\t")
        elif 0x20 <= byte < 0x7F:
            out.append(chr(byte))
        else:
            out.append(f"\\{byte:03o}")
    return "".join(out)


def parse_args(args):
    """Return (output path, command) or raise ValueError."""
    output = None
    i = 0
    while i < len(args) and args[i].startswith("-"):
        option = args[i]
        if option in _FLAGS:
            i += 1
        elif option in _VALUED and i + 1 < len(args):
            if option == "-o":
                output = args[i + 1]
            i += 2
        else:
            raise ValueError(f"cannot honour option {option!r}")
    if output is None:
        raise ValueError("no -o FILE given")
    if i == len(args):
        raise ValueError("no command given")
    return output, args[i:]


def main(argv):
    if len(argv) < 2:
        print("strace stand-in: usage: TEMPLATE [OPTIONS] -o FILE COMMAND", file=sys.stderr)
        return USAGE_EXIT
    template, args = argv[1], argv[2:]
    try:
        output, command = parse_args(args)
    except ValueError as exc:
        print(f"strace stand-in: {exc}", file=sys.stderr)
        return USAGE_EXIT
    control = os.environ.get("YPROV_CONTROL")
    if not control:
        print("strace stand-in: YPROV_CONTROL is not set", file=sys.stderr)
        return USAGE_EXIT
    with open(template, encoding="utf-8") as handle:
        text = handle.read()
    with open(output, "w", encoding="utf-8") as handle:
        handle.write(text.replace(CONTROL_PLACEHOLDER, strace_quote(control)))
    os.execvp(command[0], command)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
