#!/usr/bin/env python3
"""Code-line counter for the repo's C++ sources.

A code line is a non-blank line with at least one character outside `//`
and `/* */` comments. The lexer knows string and character literals,
escapes included, so a comment marker inside a literal opens no comment.
It reads a raw string literal or a digit separator as a plain quote,
which miscounts only a comment marker inside the raw string or after the
separator on its line.

For each PATH it prints the code lines of that file, or of every `.cpp`
and `.hpp` file found recursively under that directory, then a total in
which a file reached through several PATHs counts once.

Usage: code_lines.py PATH [PATH ...]
Exits non-zero when a PATH does not exist or a file cannot be read.
"""

import os
import sys

SOURCE_SUFFIXES = (".cpp", ".hpp")


def skip_literal(text, i, line, code):
    """Skip the literal opening at text[i]; return (index, line) after it.

    Lines an escaped newline joins to the literal count as code."""
    quote = text[i]
    i += 1
    while i < len(text):
        c = text[i]
        if c == "\\":
            if text.startswith("\n", i + 1):
                line += 1
                code.add(line)
            i += 2
        elif c == quote:
            return i + 1, line
        elif c == "\n":
            return i, line  # unterminated: the newline ends it
        else:
            i += 1
    return i, line


def count_code_lines(text):
    """Number of code lines in C++ source `text`."""
    code = set()  # 0-based indices of lines holding code
    line = 0
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            i += 1
        elif c.isspace():
            i += 1
        elif text.startswith("//", i):
            end = text.find("\n", i)
            i = n if end < 0 else end
        elif text.startswith("/*", i):
            end = text.find("*/", i + 2)
            end = n if end < 0 else end + 2
            line += text.count("\n", i, end)
            i = end
        else:
            code.add(line)
            if c in "\"'":
                i, line = skip_literal(text, i, line, code)
            else:
                i += 1
    lines = text.split("\n")
    return sum(1 for k in code if k < len(lines) and lines[k].strip())


def source_files(path):
    """The file itself, or the sorted C++ sources under a directory."""
    if not os.path.isdir(path):
        return [path]
    found = []
    for root, dirs, files in os.walk(path):
        dirs.sort()
        found.extend(os.path.join(root, f) for f in sorted(files)
                     if f.endswith(SOURCE_SUFFIXES))
    return found


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    counted = {}  # real path -> code lines, so the total counts a file once
    for path in argv[1:]:
        if not os.path.exists(path):
            print(f"{path}: no such file or directory", file=sys.stderr)
            return 1
        subtotal = 0
        for name in source_files(path):
            key = os.path.realpath(name)
            if key not in counted:
                try:
                    with open(name, encoding="utf-8") as handle:
                        counted[key] = count_code_lines(handle.read())
                except OSError as error:
                    print(f"{name}: cannot read ({error.strerror})",
                          file=sys.stderr)
                    return 1
            subtotal += counted[key]
        print(f"{subtotal:>8} {path}")
    print(f"{sum(counted.values()):>8} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
