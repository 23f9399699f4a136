"""Build the native cycle loop out of tree and describe the build host.

``src/repro/fastsim/_native.c`` is compiled with the repository's own
``setup.py`` into ``perfbench/.work/native/<stamp>/``, never into ``src/``.
The stamp hashes the C source, ``setup.py`` and the interpreter, so a
checkout builds once and later runs reuse the artifact.  Compile time is
never part of a measured set-up.
"""

from __future__ import annotations

import hashlib
import os
import platform
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path


class BenchError(RuntimeError):
    """The benchmark cannot run here; reported as one line, exit code 2."""


def build(root: Path, work: Path) -> Path:
    """Compile the extension; returns the directory holding ``_native*.so``."""
    source = root / "src" / "repro" / "fastsim" / "_native.c"
    setup = root / "setup.py"
    if not source.is_file() or not setup.is_file():
        raise BenchError(f"no program to build: {source.relative_to(root)} or setup.py is missing")
    digest = hashlib.sha256()
    for part in (source.read_bytes(), setup.read_bytes(), sys.version.encode()):
        digest.update(part)
    base = work / "native" / digest.hexdigest()[:16]
    out = base / "lib" / "repro" / "fastsim"
    if not list(out.glob("_native*.so")):
        shutil.rmtree(base, ignore_errors=True)
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env["REPRO_NATIVE_REQUIRE"] = "1"
        proc = subprocess.run(
            [sys.executable, "setup.py", "-q", "build_ext",
             "--build-lib", str(base / "lib"), "--build-temp", str(base / "tmp")],
            cwd=root, env=env, capture_output=True, text=True, timeout=600,
        )
        if proc.returncode != 0 or not list(out.glob("_native*.so")):
            tail = (proc.stderr or proc.stdout).strip().splitlines()[-1:] or ["no output"]
            raise BenchError(f"native backend build failed: {tail[0]}")
    return out


def host_info(root: Path) -> dict:
    """Compiler, interpreter, CPU count and code identity of this run."""
    compiler = sysconfig.get_config_var("CC") or "cc"
    try:
        version = subprocess.run(
            [compiler.split()[0], "--version"], capture_output=True, text=True, timeout=10
        ).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.SubprocessError):
        version = "unknown"
    return {
        "compiler": f"{compiler} ({version})",
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": _commit(root),
    }


def _commit(root: Path) -> str:
    """The git commit, or a hash of ``src/`` when the checkout is not a repository."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
        if proc.returncode == 0:
            return proc.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]
