#!/usr/bin/env python3
"""Self-test of tools/code_lines.py: which lines count as code.

Run: python3 tools/test_code_lines.py (also the `code_lines` ctest).
"""

import contextlib
import io
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import code_lines  # noqa: E402

count = code_lines.count_code_lines


class CountCodeLines(unittest.TestCase):
    def test_blank_lines_do_not_count(self):
        self.assertEqual(count("int a;\n\n   \n\t\nint b;\n"), 2)
        self.assertEqual(count(""), 0)

    def test_line_comments_do_not_count(self):
        self.assertEqual(count("// one\n/// two\n  //! three\nint a;\n"), 1)

    def test_block_comment_spanning_lines_does_not_count(self):
        text = "/* opens\n   inside\n\n   closes */\nint a;\n"
        self.assertEqual(count(text), 1)
        # Code before the opener and after the closer keeps its line.
        self.assertEqual(count("int a; /* opens\n inside\n */ int b;\n"), 2)

    def test_code_with_a_trailing_comment_counts(self):
        self.assertEqual(count("int a;  // why\nint b; /* why */\n"), 2)

    def test_comment_markers_inside_literals_open_no_comment(self):
        self.assertEqual(count('const char* s = "//";\nint a;\n'), 2)
        self.assertEqual(count('const char* s = "/*";\nint a;\n'), 2)
        self.assertEqual(count('char q = \'"\';  // c\nint a;\n'), 2)
        self.assertEqual(count('auto s = "a \\" // b";\nint a;\n'), 2)


class Main(unittest.TestCase):
    def test_prints_each_path_then_a_total_counting_files_once(self):
        with tempfile.TemporaryDirectory() as root:
            os.makedirs(os.path.join(root, "sub"))
            files = {
                "a.cpp": "int a;\n// c\n",
                "sub/b.hpp": "#pragma once\nint b;\n",
                "notes.txt": "not C++\n",
            }
            for name, text in files.items():
                with open(os.path.join(root, name), "w",
                          encoding="utf-8") as handle:
                    handle.write(text)
            single = os.path.join(root, "a.cpp")
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                self.assertEqual(code_lines.main(["code_lines", single, root]),
                                 0)
            rows = [line.split() for line in out.getvalue().splitlines()]
            self.assertEqual(rows, [["1", single], ["3", root],
                                    ["3", "total"]])

    def test_missing_path_fails(self):
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            self.assertEqual(code_lines.main(["code_lines", "/nonexistent"]),
                             1)
        self.assertIn("no such file", err.getvalue())


if __name__ == "__main__":
    unittest.main()
