#!/usr/bin/env python3
"""Builds the liblnc benchmark program from source and runs one workload.

    python3 perfbench/run.py --workload <paper-suite|serve-mix> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source tree. The build (liblnc plus the program in
perfbench/src) goes to $CARGO_TARGET_DIR, or .bench_build when that is
unset; later runs only re-check it. Build output goes to stderr, so the
last line on stdout is the program's JSON result. Extra flags after the
four above (--tiny, --corrupt-reference) pass through to the program.
"""

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def build(build_root: Path) -> Path:
    build_dir = build_root / "perfbench"
    configured = build_dir / ".configured"
    if not configured.exists():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
        configured.touch()
    subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", "perfbench",
         "-j", "4"],
        check=True, stdout=sys.stderr)
    return build_dir / "perfbench"


def main() -> int:
    build_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        program = build(build_root)
    except (subprocess.CalledProcessError, OSError) as error:
        print(f"run.py: build failed: {error}", file=sys.stderr)
        return 1
    command = [str(program), *sys.argv[1:],
               "--work-dir", str(build_root / "work")]
    return subprocess.run(command, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
