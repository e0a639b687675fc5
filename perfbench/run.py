#!/usr/bin/env python3
"""Build the perfbench benchmark from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload camera-ingest --seed 1 --seconds 10 --trace 0

The Go toolchain's caches, the binary, span files and per-layer tables all
go under .bench_build/ in the checkout, so nothing is read or written
outside it. Every argument is passed to the benchmark binary; see
perfbench/README.md. Exits non-zero, printing no result, when the program
cannot be built (for example when only the benchmark's own files are
present).
"""

import os
import subprocess
import sys


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.path.join(root, ".bench_build")
    tmp = os.path.join(build, "tmp")
    for d in (build, tmp):
        os.makedirs(d, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOMODCACHE": os.path.join(build, "gomodcache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "HOME": os.path.join(build, "home"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "XDG_CACHE_HOME": os.path.join(build, "cache"),
        "GOFLAGS": "-mod=readonly",
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
        "CGO_ENABLED": "0",
    })
    binary = os.path.join(build, "perfbench", "perfbench")
    b = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                       stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if b.returncode != 0:
        sys.stderr.write("perfbench: build failed:\n" + b.stdout)
        return 1
    out = os.path.join(build, "perfbench", "out")
    r = subprocess.run([binary, "--out", out] + sys.argv[1:], cwd=root, env=env)
    return r.returncode


if __name__ == "__main__":
    sys.exit(main())
