"""Make the out-of-tree native build importable as ``repro.fastsim._native``.

Every process of the program under test calls :func:`activate` before it
imports anything that loads the extension.  Run as a script, it then
starts the ``repro`` command line::

    python3 perfbench/boot.py <native-dir> serve --worker ...
"""

from __future__ import annotations

import sys


def activate(native_dir: str) -> None:
    """Put *native_dir* first on ``repro.fastsim``'s path and require the native backend."""
    import repro.fastsim

    repro.fastsim.__path__.insert(0, native_dir)
    if not repro.fastsim.native_available():
        raise SystemExit(f"error: native backend unavailable from {native_dir}")
    from repro.fastsim import _native

    if not _native.__file__.startswith(native_dir):
        raise SystemExit(f"error: native extension loaded from {_native.__file__}, not {native_dir}")


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set of a process, from ``/proc``."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


if __name__ == "__main__":
    activate(sys.argv[1])
    from repro.cli import main

    sys.exit(main(sys.argv[2:]))
