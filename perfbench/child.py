"""Run one ``lagraph`` CLI command in this process and time it from outside.

    python3 perfbench/child.py RECORD.json MODE -- COMMAND [FLAGS...]

``COMMAND [FLAGS...]`` is what a user passes to ``lagraph``; it goes to
``lagraph.cli.main`` unchanged. The experiment function that ``main``
dispatches to (``run_pipeline`` and so on) is replaced by a timer, so the
record holds ``t_enter`` and ``t_exit`` on the system-wide monotonic clock:
``t_enter`` is when the first seed starts, after the interpreter launched,
imported ``lagraph`` and resolved the config.

MODE is one of:

* ``setup``: stop at ``t_enter`` without running the experiment, and record
  the library versions and BLAS settings;
* ``run``: run the experiment untraced;
* ``trace``: run it with spans around every public ``lagraph`` function
  (see ``spans.py``) and write them to ``spans.json`` beside the record.

The process exits with the CLI's exit code.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import sys
import time

import spans

RUN_FUNCTIONS = {
    "pipeline": "run_pipeline",
    "ablation": "run_ablation",
    "sweep": "run_oracle_sweep",
    "theory": "run_theory",
}


class _SetupDone(Exception):
    """Raised at the start of the experiment in ``setup`` mode."""


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, or None if not found."""
    try:
        with open("/proc/self/maps", "r", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "blas_threads_env": {k: os.environ[k] for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                             if k in os.environ},
    }


def main(argv: list[str]) -> int:
    record_path, mode = argv[0], argv[1]
    if argv[2] != "--" or mode not in ("setup", "run", "trace"):
        raise SystemExit("usage: child.py RECORD.json setup|run|trace -- COMMAND [FLAGS...]")
    cli_argv = argv[3:]

    import lagraph.cli as cli

    attr = RUN_FUNCTIONS[cli_argv[0]]
    original = getattr(cli, attr)
    record: dict = {"mode": mode}
    tracer = spans.Tracer() if mode == "trace" else None

    def timed(*args, **kwargs):
        record["t_enter"] = time.monotonic()
        if mode == "setup":
            cfg = args[0]
            record["resolved"] = {"seeds": list(cfg.seeds), "dataset_n": cfg.dataset["n"],
                                  "config_hash": cfg.config_hash}
            raise _SetupDone
        try:
            if tracer is None:
                return original(*args, **kwargs)
            tracer.install()
            try:
                return tracer.wrap(spans.ROOT_SPAN, original)(*args, **kwargs)
            finally:
                tracer.restore()
        finally:
            record["t_exit"] = time.monotonic()

    setattr(cli, attr, timed)
    try:
        code = cli.main(cli_argv)
    except _SetupDone:
        code = 0
    finally:
        setattr(cli, attr, original)
    sys.stdout.flush()
    record["exit_code"] = code
    if mode == "setup":
        record["env"] = environment()
    if tracer is not None:
        tracer.write(os.path.join(os.path.dirname(record_path), "spans.json"))
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
