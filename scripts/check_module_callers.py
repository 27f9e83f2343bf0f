#!/usr/bin/env python3
"""Fails when a library header has no caller outside its own module.

Usage:
  check_module_callers.py

Scans the repository that contains this script. A header
`src/<dir>/<name>.h` counts as called when some file under `src/` other than
its own `src/<dir>/<name>.cc`, or any file under `bench/`, `examples/` or
`perfbench/`, has `#include "<dir>/<name>.h"`. Tests do not count: a module
that only its own test includes is dead library code.

ALLOWLIST names the headers that are deliberately test-only, each with its
reason. Exits 0 when every other header has a caller, 1 listing the headers
that do not.
"""

import os
import re
import sys

ALLOWLIST = {
    "util/alloc_counter.h":
        "the counting operator new replacement; only the allocation "
        "regression tests read its counters",
    "inference/junction_tree.h":
        "appcost_test's oracle for the state-space cost",
}

CALLER_DIRS = ("src", "bench", "examples", "perfbench")
SOURCE_SUFFIXES = (".h", ".cc", ".cpp")
INCLUDE = re.compile(r'^\s*#\s*include\s+"([^"]+)"', re.MULTILINE)


def source_files(root, top):
    for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(SOURCE_SUFFIXES):
                yield os.path.join(dirpath, name)


def find_uncalled(root):
    """Returns the src-relative headers no caller includes, sorted."""
    src = os.path.join(root, "src")
    headers = {os.path.relpath(path, src)
               for path in source_files(root, "src") if path.endswith(".h")}
    called = set()
    for top in CALLER_DIRS:
        for path in source_files(root, top):
            with open(path, encoding="utf-8", errors="replace") as f:
                included = INCLUDE.findall(f.read())
            rel = os.path.relpath(path, src) if top == "src" else None
            for header in included:
                own_cc = os.path.splitext(header)[0] + ".cc"
                if rel in (header, own_cc):
                    continue  # a module does not call itself
                called.add(header)
    return sorted(h for h in headers if h not in called)


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    uncalled = find_uncalled(root)
    failures = [h for h in uncalled if h not in ALLOWLIST]
    for header in uncalled:
        if header in ALLOWLIST:
            print(f"allowed: {header} ({ALLOWLIST[header]})")
    stale = sorted(set(ALLOWLIST) - set(uncalled))
    for header in stale:
        print(f"FAIL: allowlisted {header} is missing or now has a caller; "
              "drop it from ALLOWLIST")
    for header in failures:
        print(f"FAIL: src/{header} is included by nothing outside its own "
              "module and the tests")
    if failures or stale:
        return 1
    print("ok: every other header under src/ has a caller")
    return 0


if __name__ == "__main__":
    sys.exit(main())
