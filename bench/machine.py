"""Machine facts recorded with every result.

BLAS threads are read through ctypes from each OpenBLAS the process has
loaded (numpy and scipy each bundle one), because that is the setting in
effect; ``OHLAB_THREADS`` caps nothing and is not consulted.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
from pathlib import Path

_PREFIXES = ("", "scipy_")
_SUFFIXES = ("", "64_")


def _openblas_call(lib, stem, restype):
    for prefix in _PREFIXES:
        for suffix in _SUFFIXES:
            name = f"{prefix}openblas_{stem}{suffix}"
            if hasattr(lib, name):
                fn = getattr(lib, name)
                fn.argtypes = []
                fn.restype = restype
                return fn()
    return None


def openblas_libraries() -> list:
    """Name, configuration and threads in effect of every loaded OpenBLAS."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = sorted({line.split()[-1] for line in fh
                        if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    out = []
    for path in paths:
        lib = ctypes.CDLL(path)
        config = _openblas_call(lib, "get_config", ctypes.c_char_p)
        out.append({
            "library": os.path.basename(path),
            "config": config.decode() if config else None,
            "threads": _openblas_call(lib, "get_num_threads", ctypes.c_int),
        })
    return out


def last_level_cache() -> str | None:
    best = None
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        if best is None or level > best[0]:
            best = (level, f"L{level} {size}")
    return best[1] if best else None


def git_sha(root: Path) -> str | None:
    """HEAD of a git checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(root: Path) -> str:
    """sha256 over src/ohlab/*.py, which identifies the code without git."""
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "ohlab").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def facts(root: Path) -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "openblas": openblas_libraries(),
        "llc": last_level_cache(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "git_sha": git_sha(root),
        "src_sha256": source_digest(root),
    }
