#!/usr/bin/env python3
"""Documentation consistency gate (the CI `docs` job).

Three checks, no external dependencies:

1. **Links** — every relative markdown link in README.md and docs/*.md must
   resolve to an existing file in the repository.  External links
   (http/https/mailto) are not fetched, and targets that resolve outside
   the repository root are skipped — that is how GitHub-web-relative paths
   like the CI badge's ``../../actions/...`` stay legal without a network
   round trip.  Pure in-page anchors (``#section``) are skipped; an anchor
   on a file link is checked for file existence only.

2. **Bench schemas** — every ``graphhd-bench-*/vN`` schema string mentioned
   in docs/benchmarks.md must exist somewhere under bench/ (a harness
   source or a baseline file), and every schema emitted by a bench source
   must be documented in docs/benchmarks.md — so the schema catalogue can
   never silently drift from the harnesses.

3. **Comment references** — every ``*.md`` file named in a comment of a
   source file under src/, bench/, examples/, tests/ or tools/ (C++ ``//``
   and ``/* */`` comments, Python ``#`` comments and docstrings) must exist
   relative to the repository root, to docs/ or to the commenting file's
   directory — so no comment sends a reader to a page that is not there.

Exit status: 0 when everything resolves, 1 otherwise.
"""

import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
SCHEMA_RE = re.compile(r"graphhd-bench-[a-z0-9_]+/v\d+")
EXTERNAL_PREFIXES = ("http://", "https://", "mailto:")


def doc_files():
    files = [REPO_ROOT / "README.md"]
    files.extend(sorted((REPO_ROOT / "docs").glob("**/*.md")))
    return [f for f in files if f.is_file()]


def check_links():
    failures = []
    for doc in doc_files():
        text = doc.read_text(encoding="utf-8")
        for match in LINK_RE.finditer(text):
            target = match.group(1)
            if target.startswith(EXTERNAL_PREFIXES):
                continue
            path_part = target.split("#", 1)[0]
            if not path_part:  # pure in-page anchor
                continue
            resolved = (doc.parent / path_part).resolve()
            if not resolved.is_relative_to(REPO_ROOT):
                continue  # GitHub-web-relative (e.g. the CI badge) — out of scope
            if not resolved.exists():
                failures.append(
                    f"{doc.relative_to(REPO_ROOT)}: broken link -> {target}"
                )
    return failures


def check_bench_schemas():
    failures = []
    benchmarks_doc = REPO_ROOT / "docs" / "benchmarks.md"
    if not benchmarks_doc.is_file():
        return ["docs/benchmarks.md is missing"]
    documented = set(SCHEMA_RE.findall(benchmarks_doc.read_text(encoding="utf-8")))

    bench_dir = REPO_ROOT / "bench"
    in_bench = set()
    in_sources = set()
    for path in sorted(bench_dir.glob("**/*")):
        if path.suffix not in (".cpp", ".hpp", ".json") or not path.is_file():
            continue
        found = set(SCHEMA_RE.findall(path.read_text(encoding="utf-8")))
        in_bench |= found
        if path.suffix in (".cpp", ".hpp"):
            in_sources |= found

    for schema in sorted(documented - in_bench):
        failures.append(
            f"docs/benchmarks.md documents {schema!r} but no bench source or "
            "baseline mentions it"
        )
    for schema in sorted(in_sources - documented):
        failures.append(
            f"bench/ emits {schema!r} but docs/benchmarks.md does not document it"
        )
    if not documented:
        failures.append("docs/benchmarks.md names no graphhd-bench-*/vN schemas")
    return failures


COMMENT_DIRS = ("src", "bench", "examples", "tests", "tools")
CPP_SUFFIXES = (".cpp", ".hpp", ".h", ".cc")
CPP_COMMENT_RE = re.compile(r"//[^\n]*|/\*.*?\*/", re.DOTALL)
CPP_STRING_RE = re.compile(r'"(?:\\.|[^"\\\n])*"')
PY_COMMENT_RE = re.compile(r'#[^\n]*|"""(?:.|\n)*?"""')
MD_NAME_RE = re.compile(r"(?<![\w./-])\w[\w./-]*\.md\b")


def comments(path):
    if path.suffix not in CPP_SUFFIXES + (".py",):
        return []
    text = path.read_text(encoding="utf-8")
    if path.suffix in CPP_SUFFIXES:
        # Blank out string literals first, so "//" inside a string is not
        # taken for a comment and a string naming a .md file is not checked.
        text = CPP_STRING_RE.sub('""', text)
        return CPP_COMMENT_RE.findall(text)
    return PY_COMMENT_RE.findall(text)


def check_comment_references():
    failures = []
    for top in COMMENT_DIRS:
        for path in sorted((REPO_ROOT / top).glob("**/*")):
            for comment in comments(path) if path.is_file() else []:
                for name in MD_NAME_RE.findall(comment):
                    bases = (REPO_ROOT, REPO_ROOT / "docs", path.parent)
                    if not any((base / name).is_file() for base in bases):
                        failures.append(
                            f"{path.relative_to(REPO_ROOT)}: comment names missing {name}"
                        )
    return failures


def main():
    failures = check_links() + check_bench_schemas() + check_comment_references()
    for failure in failures:
        print(f"check_docs: FAIL {failure}", file=sys.stderr)
    if failures:
        print(f"check_docs: {len(failures)} problem(s)", file=sys.stderr)
        return 1
    docs = len(doc_files())
    print(
        f"check_docs: OK — {docs} document(s), links, bench schemas and comment "
        "references consistent"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
