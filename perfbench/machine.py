"""Print the machine facts that go next to benchmark figures, as JSON.

    python3 perfbench/machine.py

Cores, Python, numpy and scipy versions, and the OpenBLAS build and thread
count that numpy loads under the current environment.
"""

import ctypes
import glob
import json
import os
import platform
import sys


def openblas():
    import numpy

    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for suffix in ("64_", ""):
            config = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
            threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            if config and threads:
                config.restype = ctypes.c_char_p
                return config().decode(), threads()
    return None, None


def facts() -> dict:
    import numpy
    import scipy

    config, threads = openblas()
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "openblas": config, "blas_threads": threads,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")}


if __name__ == "__main__":
    json.dump(facts(), sys.stdout)
    print()
