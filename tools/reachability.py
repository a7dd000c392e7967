#!/usr/bin/env python3
"""Library reachability scan (the CI `reachability` job).

Lists every ``graphhd::`` function in ``libgraphhd.a`` that none of the
shipped programs keeps, so "nothing uses this" is measured instead of
guessed from grep.  The shipped programs are the examples (``examples/``),
the bench harnesses (``bench/``) and ``graphhd_perfbench`` (``perfbench/``).

Method:

1. Build the library and every example and bench harness at ``-O0`` with
   ``-ffunction-sections -fdata-sections``, linked with
   ``-Wl,--gc-sections``, tests off.  ``graphhd_perfbench`` is built the
   same way through ``perfbench/CMakeLists.txt``.  At ``-O0`` nothing is
   inlined, so a library function survives ``--gc-sections`` in a program
   exactly when that program calls it; an optimised scan would list
   functions whose every call was inlined.
2. Compare ``nm`` of ``libgraphhd.a`` with ``nm`` of the programs, by
   mangled name: constructor and destructor variants count separately.
3. Print every library function that no program defines, grouped by
   source file, then the count.

Usage (from anywhere; the build tree defaults to ``.reachability_build/``
at the repository root):

    python3 tools/reachability.py [--build-dir DIR]

Exit status: 0 when the count is at most ``CEILING``; 1 when it is above
(a new function that no program calls), when a program is missing (for
example the ``micro_*`` harnesses without Google Benchmark: a scan over
fewer programs would overcount), or when a build step fails.
"""

import argparse
import os
import re
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

# The ratchet: the number of library functions no shipped program keeps
# (gcc 12.2).  Lower it when a change removes unreached code; never raise it
# to admit new code that nothing calls.
CEILING = 36

COMPILE_FLAGS = "-ffunction-sections -fdata-sections"
LINK_FLAGS = "-Wl,--gc-sections"
FUNCTION_TYPES = set("TtWw")
# Itanium-mangled names of functions declared in namespace graphhd (members
# and free functions, any cv/ref qualifier).  Lambdas local to a library
# function and std templates instantiated on graphhd types are left out:
# they live and die with the function that uses them.
GRAPHHD_FUNCTION = re.compile(r"_ZN[KVRO]*7graphhd")


def programs():
    names = ["example_" + p.stem for p in sorted((REPO_ROOT / "examples").glob("*.cpp"))]
    names += [p.stem for p in sorted((REPO_ROOT / "bench").glob("*.cpp"))]
    return names


def run(command):
    print("+ " + " ".join(str(c) for c in command), file=sys.stderr, flush=True)
    subprocess.run(command, check=True, stdout=subprocess.DEVNULL)


def configure_and_build(source, build, targets):
    run(["cmake", "-S", source, "-B", build, "-DCMAKE_BUILD_TYPE=Debug",
         "-DCMAKE_CXX_FLAGS_DEBUG=-O0", "-DCMAKE_CXX_FLAGS=" + COMPILE_FLAGS,
         "-DCMAKE_EXE_LINKER_FLAGS=" + LINK_FLAGS, "-DGRAPHHD_BUILD_TESTS=OFF"])
    run(["cmake", "--build", build, "-j", str(os.cpu_count() or 1), "--target", *targets])


def nm(path):
    """Yields (archive member or "", mangled name, type) per defined symbol."""
    out = subprocess.run(["nm", "-A", "--defined-only", str(path)], check=True,
                         stdout=subprocess.PIPE, text=True).stdout
    for line in out.splitlines():
        fields = line.split()
        if len(fields) == 3:
            # "archive:member:address" for archives, "program:address" otherwise.
            location = fields[0].split(":")
            yield (location[1] if len(location) == 3 else ""), fields[2], fields[1]


def demangle(names):
    out = subprocess.run(["c++filt"], input="\n".join(names), check=True,
                         stdout=subprocess.PIPE, text=True).stdout
    return out.splitlines()


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--build-dir", default=str(REPO_ROOT / ".reachability_build"))
    args = parser.parse_args()

    build = Path(args.build_dir).resolve()
    names = programs()
    try:
        configure_and_build(REPO_ROOT, build / "root", ["graphhd", *names])
        configure_and_build(REPO_ROOT / "perfbench", build / "perfbench", ["graphhd_perfbench"])
    except subprocess.CalledProcessError as error:
        print("reachability: build step failed: %s" % error, file=sys.stderr)
        return 1

    paths = [build / "root" / n for n in names] + [build / "perfbench" / "graphhd_perfbench"]
    missing = [p.name for p in paths if not p.is_file()]
    if missing:
        print("reachability: missing programs: %s" % ", ".join(missing), file=sys.stderr)
        return 1

    library = {}
    for member, name, kind in nm(build / "root" / "libgraphhd.a"):
        if kind in FUNCTION_TYPES and GRAPHHD_FUNCTION.match(name):
            library.setdefault(name, member.removesuffix(".o"))
    kept = {name for path in paths for _, name, _ in nm(path)}

    unreached = sorted(n for n in library if n not in kept)
    by_file = defaultdict(list)
    for name, pretty in zip(unreached, demangle(unreached)):
        by_file[library[name]].append(pretty)

    sources = {p.name: p.relative_to(REPO_ROOT) for p in (REPO_ROOT / "src").rglob("*.cpp")}
    for member in sorted(by_file, key=lambda m: str(sources.get(m, m))):
        print("%s (%d)" % (sources.get(member, member), len(by_file[member])))
        for pretty in sorted(by_file[member]):
            print("  " + pretty)
    count = len(unreached)
    print("unreached: %d (ceiling %d) over %d programs" % (count, CEILING, len(paths)))
    if count > CEILING:
        print("reachability: %d library functions are kept by no program, above the "
              "ceiling of %d" % (count, CEILING), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
