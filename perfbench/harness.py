"""Inputs, samples and the correctness gate shared by the benchmark scripts.

A sample is one fresh ``python3 perfbench/child.py`` process that runs
``recbench run`` on a generated input.  The parent times it from just
before the process starts to its exit, and reads its peak resident
memory and CPU time from ``wait4``.  Everything the benchmark writes
stays under ``perfbench/_work`` in the checkout.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import gen
import speed
from workloads import WORKLOADS, config_text

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
REFERENCES = HERE / "references.json"
BLAS_THREADS = 1


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def check_checkout():
    if not (ROOT / "src" / "recbench" / "__init__.py").is_file():
        raise BenchError(f"no recbench sources under {ROOT / 'src'}")


def child_env():
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"
    return env


def load_references():
    if not REFERENCES.exists():
        return {}
    return json.loads(REFERENCES.read_text(encoding="utf-8"))


def prepare_input(workload, seed):
    """Generate (once) the input for (workload, seed); returns (path, sha256).

    The cache key covers the shape and the generator's source, so a
    change to either regenerates the file.
    """
    key = hashlib.sha256(repr(workload.shape).encode()
                         + Path(gen.__file__).read_bytes()).hexdigest()[:12]
    path = WORK / "data" / f"{workload.name}-{seed}-{key}.inter"
    stamp = path.with_name(path.name + ".sha256")
    if path.exists() and stamp.exists():
        return path, stamp.read_text(encoding="ascii").strip()
    digest = gen.write(path, workload.shape, seed, workload.name)
    stamp.write_text(digest + "\n", encoding="ascii")
    return path, digest


@dataclass
class Sample:
    ok: bool
    error: str
    run_s: float
    setup_s: float | None
    peak_rss_mb: float
    cpu_s: float
    report: bytes | None
    spans: dict | None
    ref_s: float | None = None   # reference time around the sample (speed.py)

    def scaled(self, seconds):
        """``seconds`` at the host speed at which the reference takes NOMINAL_S."""
        return seconds * speed.NOMINAL_S / self.ref_s


def run_sample(workload, inter_path, traced, timeout):
    """Run one fresh ``recbench run`` process and collect its measurements."""
    run_dir = WORK / "runs" / workload.name
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    config = run_dir / "config.yaml"
    config.write_text(config_text(workload, inter_path, run_dir / "out"),
                      encoding="utf-8")
    result = run_dir / "sample.json"
    cmd = [sys.executable, str(HERE / "child.py"), str(result),
           "1" if traced else "0", "--", "run", "--config", str(config), "--quiet"]
    with open(run_dir / "child.log", "wb") as log:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT,
                                stdin=subprocess.DEVNULL, env=child_env(),
                                cwd=ROOT)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            t1 = time.monotonic()
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    run_s = t1 - t0
    rss_mb = usage.ru_maxrss / 1024.0
    cpu_s = usage.ru_utime + usage.ru_stime

    def failed(why):
        tail = (run_dir / "child.log").read_text(errors="replace").strip()
        tail = tail.splitlines()[-1] if tail else ""
        return Sample(False, f"{why} {tail}".strip(), run_s, None, rss_mb,
                      cpu_s, None, None)

    if proc.returncode != 0:
        return failed(f"exit code {proc.returncode}")
    if not result.exists() or not (run_dir / "out" / "report.json").exists():
        return failed("no result or report.json written")
    record = json.loads(result.read_text(encoding="utf-8"))
    setup_s = None
    if not traced:
        if record["t_first_step"] is None:
            return failed("no training step observed")
        setup_s = record["t_first_step"] - t0
    summary = record.get("spans")
    if summary is not None:
        # interpreter start-up and exit, outside the child's own clock
        summary["outside_s"] = run_s - (record["t_end"] - record["t_start"])
    report = (run_dir / "out" / "report.json").read_bytes()
    return Sample(True, "", run_s, setup_s, rss_mb, cpu_s, report, summary)


def probe_env():
    """Machine and runtime record attached to every result."""
    out = WORK / "probe.json"
    out.unlink(missing_ok=True)
    proc = subprocess.run([sys.executable, str(HERE / "child.py"), str(out), "probe"],
                          env=child_env(), cwd=ROOT, capture_output=True,
                          text=True, timeout=60)
    if proc.returncode != 0 or not out.exists():
        raise BenchError(f"cannot import recbench from the checkout: "
                         f"{proc.stderr.strip() or proc.stdout.strip()}")
    env = json.loads(out.read_text(encoding="utf-8"))
    env.update(nproc=os.cpu_count(), machine=platform.machine(),
               blas_threads=BLAS_THREADS, git_commit=_git_commit(),
               src_sha256=_tree_digest(ROOT / "src"))
    return env


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _tree_digest(top):
    """SHA-256 over the relative paths and bytes of the source files."""
    h = hashlib.sha256()
    for path in sorted(top.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".pyx", ".c"):
            h.update(str(path.relative_to(top)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def workload_named(name):
    try:
        return WORKLOADS[name]
    except KeyError:
        raise BenchError(f"unknown workload {name!r} "
                         f"(known: {', '.join(WORKLOADS)})") from None
