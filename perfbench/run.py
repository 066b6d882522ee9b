"""Repo benchmark: one command, three workloads, a separate traced run.

    python3 perfbench/run.py --workload encode_paper --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The launcher

1. builds the program from source into ``.bench_build/perfbench/<hash>/``:
   the ``repro`` package plus its compiled kernel extension (``setup.py
   build_ext``), reused while the sources are unchanged — outside every
   timed or set-up window;
2. starts the measurement process (:mod:`perfbench.measure`) with the
   compiled backend, the committed ``reference`` dispatch profile and every
   BLAS/OpenMP pool pinned to one thread;
3. passes its output through; the last line is the JSON result.

It exits non-zero without a result when the checkout holds no program to
build, when the build yields no compiled extension, or when the
measurement fails or overruns.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_ROOT = ROOT / ".bench_build" / "perfbench"
SOURCES = ("setup.py", "src")
BENCH_SOURCES = ("perfbench",)
MEASURE_TIMEOUT_S = 170.0
BUILD_TIMEOUT_S = 600.0
WORKLOADS = ("encode_paper", "serve_mixed", "stream_video")

PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "REPRO_KERNEL_BACKEND": "compiled",
    "REPRO_MACHINE_PROFILE": "reference",
    "PYTHONDONTWRITEBYTECODE": "1",
    "PYTHONHASHSEED": "0",
}


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def source_files(names) -> list[Path]:
    files = []
    for name in names:
        path = ROOT / name
        if path.is_file():
            files.append(path)
        elif path.is_dir():
            files.extend(
                p
                for p in sorted(path.rglob("*"))
                if p.is_file()
                and "__pycache__" not in p.parts
                and p.suffix in {".py", ".c", ".h", ".json"}
            )
    return files


def source_hash(files: list[Path]) -> str:
    digest = hashlib.sha256()
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()[:16]


def build(digest: str) -> Path:
    """The importable program tree for ``digest``, building it if needed."""
    target = BUILD_ROOT / digest
    lib = target / "lib"
    stamp = target / "built"
    if stamp.exists():
        return lib
    if BUILD_ROOT.exists():
        for old in BUILD_ROOT.iterdir():
            if old.is_dir() and old.name not in (digest, "records"):
                shutil.rmtree(old)
    if target.exists():
        shutil.rmtree(target)
    shutil.copytree(
        ROOT / "src" / "repro",
        lib / "repro",
        ignore=shutil.ignore_patterns("__pycache__", "*.so", "*.pyd", "*.dylib"),
    )
    subprocess.run(
        [
            sys.executable,
            "setup.py",
            "-q",
            "build_ext",
            "--build-lib",
            str(lib),
            "--build-temp",
            str(target / "tmp"),
        ],
        cwd=ROOT,
        check=True,
        timeout=BUILD_TIMEOUT_S,
        stdout=subprocess.DEVNULL,
    )
    if not list((lib / "repro" / "kernels").glob("_defa_kernels*")):
        raise RuntimeError("setup.py build_ext produced no compiled kernel library")
    stamp.write_text(digest + "\n")
    return lib


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="'tiny' shrinks every workload for the smoke tests")
    args = parser.parse_args(argv)

    if not (ROOT / "setup.py").is_file() or not (ROOT / "src" / "repro").is_dir():
        return fail(f"no program to benchmark under {ROOT} (setup.py and src/repro expected)")
    digest = source_hash(source_files(SOURCES))
    # Exact counters are compared between runs of the same program *and*
    # benchmark code.
    counters_digest = source_hash(source_files(SOURCES + BENCH_SOURCES))
    try:
        lib = build(digest)
    except (subprocess.SubprocessError, OSError, RuntimeError) as error:
        return fail(f"build failed: {error}")

    env = dict(os.environ)
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = os.pathsep.join([str(lib), str(ROOT)])
    command = [
        sys.executable,
        "-m",
        "perfbench.measure",
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--scale", args.scale,
        "--record-dir", str(BUILD_ROOT / "records"),
        "--source-hash", counters_digest,
    ]
    # A session of its own, so an overrun takes the serving workers with it.
    with subprocess.Popen(command, cwd=ROOT, env=env, start_new_session=True) as child:
        try:
            code = child.wait(timeout=MEASURE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()
            return fail(f"measurement overran {MEASURE_TIMEOUT_S:.0f} s")
    return code


if __name__ == "__main__":
    sys.exit(main())
