#!/usr/bin/env python3
"""Fail on dead relative links and stale source-file names in the docs.

Scans README.md and docs/*.md for markdown links and checks that every
relative target (optionally with a #fragment) exists on disk, relative to
the file containing the link. External (scheme://), mailto: and pure
#fragment links are skipped; so are links inside fenced code blocks, which
in this repo are command examples, not navigation.

It also checks every inline-code file name with a .cc, .hh, .cpp or .py
suffix (e.g. `simd_avx2.cc`, `harness/sweep.hh`, `src/tools/avr_sweep.cc:42`):
the name must exist relative to the repo root or the markdown file, or be
the trailing part (a basename, or an include-style path) of a file under
the source directories below. A renamed or deleted source file therefore
cannot linger in the docs.

Usage: scripts/check_links.py [file-or-dir ...]   (default: README.md docs/)
Exit status: 0 if every link and file name resolves, 1 otherwise.
"""

import re
import sys
from pathlib import Path

LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
FENCE = re.compile(r"^\s*(```|~~~)")
CODE_SPAN = re.compile(r"`([^`]+)`")
SOURCE_NAME = re.compile(r"^([\w./-]+\.(?:cc|hh|cpp|py))(?::\d+)?$")
ROOT = Path(__file__).resolve().parent.parent
SOURCE_DIRS = ("src", "tests", "bench", "examples", "scripts", "perfbench")


def source_files():
    """Every file under SOURCE_DIRS, as '/'-prefixed repo-relative paths."""
    return ["/" + p.relative_to(ROOT).as_posix()
            for d in SOURCE_DIRS for p in (ROOT / d).rglob("*") if p.is_file()]


def candidate_files(args):
    roots = [Path(a) for a in args] if args else [Path("README.md"), Path("docs")]
    for root in roots:
        if root.is_dir():
            yield from sorted(root.rglob("*.md"))
        elif root.suffix == ".md":
            yield root


def check_file(md: Path, sources):
    dead = []
    in_fence = False
    for lineno, line in enumerate(md.read_text().splitlines(), start=1):
        if FENCE.match(line):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        for target in LINK.findall(line):
            if "://" in target or target.startswith(("mailto:", "#")):
                continue
            path = target.split("#", 1)[0]
            if not path:
                continue
            if not (md.parent / path).exists():
                dead.append((lineno, "dead relative link: " + target))
        for span in CODE_SPAN.findall(line):
            m = SOURCE_NAME.match(span.strip())
            if not m:
                continue
            name = m.group(1)
            if ((ROOT / name).exists() or (md.parent / name).exists()
                    or any(p.endswith("/" + name) for p in sources)):
                continue
            dead.append((lineno, "no such source file: " + name))
    return dead


def main(argv):
    files = list(candidate_files(argv))
    if not files:
        print("check_links: no markdown files found", file=sys.stderr)
        return 1
    sources = source_files()
    failures = 0
    for md in files:
        for lineno, problem in check_file(md, sources):
            print(f"{md}:{lineno}: {problem}", file=sys.stderr)
            failures += 1
    print(f"check_links: {len(files)} file(s), {failures} problem(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
