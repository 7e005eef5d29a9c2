#!/usr/bin/env python3
"""Reachability census: finds the flowguard:: functions that src/
defines and no binary reaches.

Builds the repository (every bench, example and test binary) and
perfbench's own package at -O0 with one section per function, links
with --gc-sections, and compares nm's view of the libraries with
nm's view of the linked binaries. A function the libraries define
that is in no binary is unreachable from every entry point the
project ships or tests. Inline functions that nothing calls are never
emitted, so nm cannot see them; review those by hand.

Run from anywhere:

    python3 tools/reachability.py [--build-dir DIR] [--jobs N]

Exit codes: 0 every function is reached, 1 some are not (listed on
stdout), 2 a build or tool step failed.
"""

import argparse
import os
import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

# Mangled-name prefixes of functions in namespace flowguard, const
# members included. Entities local to a function (its lambdas) are
# left out: they are reached with the function that holds them.
PREFIXES = ("_ZN9flowguard", "_ZNK9flowguard")
TEXT_TYPES = {"T", "t", "W"}


def log(*parts):
    print("reachability:", *parts, file=sys.stderr, flush=True)


def run(cmd, **kwargs):
    done = subprocess.run(cmd, **kwargs)
    if done.returncode != 0:
        log("step failed:", " ".join(str(part) for part in cmd))
        sys.exit(2)
    return done


def build(source, out, jobs):
    """Configures and builds one CMake package for the census."""
    configure = ["cmake", "-S", str(source), "-B", str(out),
                 "-DCMAKE_BUILD_TYPE=None",
                 "-DCMAKE_CXX_FLAGS=-O0 -ffunction-sections",
                 "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections"]
    if shutil.which("ninja") and not (out / "CMakeCache.txt").exists():
        configure += ["-G", "Ninja"]
    run(configure, stdout=subprocess.DEVNULL)
    run(["cmake", "--build", str(out), "-j", str(jobs)],
        stdout=subprocess.DEVNULL)


def text_symbols(paths):
    """Mangled flowguard:: function symbols defined in `paths`."""
    symbols = set()
    for path in paths:
        listing = run(["nm", "--defined-only", str(path)],
                      capture_output=True, text=True).stdout
        for line in listing.splitlines():
            fields = line.split()
            if len(fields) == 3 and fields[1] in TEXT_TYPES and \
                    fields[2].startswith(PREFIXES):
                symbols.add(fields[2])
    return symbols


def demangle(symbols):
    """Maps each mangled symbol to its demangled name."""
    ordered = sorted(symbols)
    out = run(["c++filt"], input="\n".join(ordered), capture_output=True,
              text=True).stdout.splitlines()
    return dict(zip(ordered, out))


def executables(directory):
    for path in sorted(directory.iterdir()):
        if path.is_file() and os.access(path, os.X_OK) and \
                path.suffix == "":
            yield path


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--build-dir", default=str(ROOT / "build-reach"))
    parser.add_argument("--jobs", type=int,
                        default=min(4, os.cpu_count() or 1))
    args = parser.parse_args()
    for tool in ("cmake", "nm", "c++filt"):
        if not shutil.which(tool):
            log("missing tool:", tool)
            return 2

    out = pathlib.Path(args.build_dir).resolve()
    log("building the repository at -O0 into", out / "main")
    build(ROOT, out / "main", args.jobs)
    log("building perfbench into", out / "perfbench")
    build(ROOT / "perfbench", out / "perfbench", args.jobs)

    libraries = sorted((out / "main" / "src").glob("libfg_*.a"))
    binaries = [path for sub in ("bench", "examples", "tests")
                for path in executables(out / "main" / sub)]
    binaries.append(out / "perfbench" / "flowguard_perfbench")
    if not libraries or len(binaries) < 2:
        log("no libraries or binaries found under", out)
        return 2

    defined = demangle(text_symbols(libraries))
    reached = set(demangle(text_symbols(binaries)).values())
    # Constructor and destructor variants (C1/C2, D0/D1/D2) demangle
    # alike: a function counts as reached when any variant is.
    unreached = sorted({name for name in defined.values()
                        if name not in reached})
    log(f"{len(set(defined.values()))} functions defined in src/, "
        f"{len(binaries)} binaries, {len(unreached)} unreachable")
    for name in unreached:
        print(name)
    return 1 if unreached else 0


if __name__ == "__main__":
    sys.exit(main())
