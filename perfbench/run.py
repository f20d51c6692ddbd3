#!/usr/bin/env python3
"""Build and run the served-interval benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload read_disk --seed 1 --seconds 10 --trace 0

The benchmark is an OCaml program (perfbench/_ocaml) linked against the
repository's own libraries. Dune ignores directories whose name starts
with '_', so the repository's build never sees it; this script stages a
private dune workspace under .bench_build/ws (the project's dune-project
and lib/ plus the benchmark sources), builds it there and runs the
executable with the same arguments. Everything it writes stays under
.bench_build. The last line of standard output is the JSON result.

A checkout without lib/ cannot build, so the script exits non-zero
without printing a result.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WS = os.path.join(BUILD, "ws")
EXE = os.path.join(WS, "_build", "default", "perfbench", "perfbench.exe")


def tree(top):
    """Relative path -> bytes of every staged file under top."""
    out = {}
    for d, dirs, files in os.walk(top):
        dirs[:] = [x for x in dirs if x != "_build" and not x.startswith(".")]
        for f in files:
            if not f.startswith("."):
                path = os.path.join(d, f)
                with open(path, "rb") as fh:
                    out[os.path.relpath(path, top)] = fh.read()
    return out


def stage():
    """Replace the workspace's sources with this checkout's. The old
    copies are removed first, so a module that another checkout added
    is never built here; dune's _build stays and is keyed on file
    contents, so rebuilds stay incremental."""
    lib = os.path.join(ROOT, "lib")
    project = os.path.join(ROOT, "dune-project")
    if not (os.path.isdir(lib) and os.path.isfile(project)):
        sys.stderr.write("perfbench: no lib/ or dune-project in %s\n" % ROOT)
        sys.exit(2)
    os.makedirs(WS, exist_ok=True)
    shutil.copyfile(project, os.path.join(WS, "dune-project"))
    for src, dst in ((lib, "lib"), (os.path.join(HERE, "_ocaml"), "perfbench")):
        dst = os.path.join(WS, dst)
        shutil.rmtree(dst, ignore_errors=True)
        shutil.copytree(src, dst, ignore=shutil.ignore_patterns("_build", ".*"))
        if tree(src) != tree(dst):
            sys.stderr.write("perfbench: staged %s differs from %s\n" % (dst, src))
            sys.exit(2)


def build():
    # Keep the compiler's temporary files and dune's cache inside the
    # checkout as well.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmp,
               XDG_CACHE_HOME=os.path.join(BUILD, "cache"))
    r = subprocess.run(
        ["dune", "build", "--root", WS, "--display", "quiet", "--profile", "release",
         "./perfbench/perfbench.exe"],
        env=env, stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0 or not os.path.isfile(EXE):
        sys.stderr.write("perfbench: build failed\n")
        sys.exit(2)


def main():
    stage()
    build()
    r = subprocess.run([EXE] + sys.argv[1:], cwd=ROOT)
    sys.exit(r.returncode)


if __name__ == "__main__":
    main()
