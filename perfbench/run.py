#!/usr/bin/env python3
"""Build and run the dmml benchmark.

    python3 perfbench/run.py --workload score_model --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout. Builds the `scoring_server` example
and the benchmark binary in release mode (into $CARGO_TARGET_DIR, default
`.bench_build`), then runs one workload. Everything the run writes stays in
the checkout: a private temporary directory under `.bench_tmp/` (removed at
the end, with any spill files) and, for traced runs, a Chrome trace under
`.bench_out/`. The last line of standard output is the result JSON; exits
non-zero without a result when the build or the run fails.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("score_model", "score_churn", "train_batch")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build(root, target_dir, env):
    """Build both binaries; cargo's output goes to stderr."""
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         str(root / "Cargo.toml"), "--example", "scoring_server"],
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         str(root / "perfbench" / "Cargo.toml")],
    ):
        res = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if res.returncode != 0:
            log(f"build failed: {' '.join(cmd)}")
            return False
    server = target_dir / "release" / "examples" / "scoring_server"
    bench = target_dir / "release" / "perfbench"
    return (server, bench) if server.is_file() and bench.is_file() else False


def source_digest(root):
    """SHA-256 over the sources the benchmark builds (the checkout may not
    be a git repository)."""
    h = hashlib.sha256()
    files = [root / "Cargo.toml", root / "Cargo.lock"]
    for sub in ("src", "crates", "examples", "perfbench/src"):
        files += sorted(p for p in (root / sub).rglob("*") if p.is_file() and "target" not in p.parts)
    for p in files:
        if p.is_file():
            h.update(str(p.relative_to(root)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()[:16]


def output_of(cmd, root):
    try:
        res = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=30)
        return res.stdout.strip() if res.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        return None


def stamp(root):
    rustc = output_of(["rustc", "--version"], root) or "unknown"
    commit = output_of(["git", "rev-parse", "HEAD"], root) if (root / ".git").exists() else None
    commit = f'"{commit}"' if commit else "null"
    return (f'{{"rustc": "{rustc}", "git_commit": {commit}, '
            f'"source_sha256": "{source_digest(root)}"}}')


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path(__file__).resolve().parent.parent
    if not (root / "Cargo.toml").is_file() or not (root / "examples" / "scoring_server.rs").is_file():
        log(f"{root} is not a dmml source checkout")
        return 1
    # A clean environment for everything below, the server included: no
    # inherited DMML_* knobs.
    env = {k: v for k, v in os.environ.items() if not k.startswith("DMML_")}
    target_dir = Path(env.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target_dir.is_absolute():
        target_dir = root / target_dir
    env["CARGO_TARGET_DIR"] = str(target_dir)
    built = build(root, target_dir, env)
    if not built:
        return 1
    server, bench = built

    tmp = root / ".bench_tmp" / f"run-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    cmd = [str(bench), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--server-bin", str(server), "--stamp", stamp(root)]
    if args.trace:
        out = root / ".bench_out"
        out.mkdir(exist_ok=True)
        cmd += ["--trace-out", str(out / f"trace-{args.workload}-seed{args.seed}.json")]
    # Own process group, so a timeout also stops the server it started.
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            (root / ".bench_tmp").rmdir()
        except OSError:
            pass
    if proc.returncode != 0:
        sys.stdout.write(stdout)
        log(f"benchmark exited with {proc.returncode}")
        return 1
    sys.stdout.write(stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
