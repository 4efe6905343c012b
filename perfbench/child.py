"""One benchmark sample: ``recbench run`` in this process, timed.

Usage::

    python3 perfbench/child.py RESULT.json TRACE -- run --config cfg.yaml --quiet
    python3 perfbench/child.py RESULT.json probe

The first form imports ``recbench`` from the checkout's ``src/``, runs
the CLI with the given arguments and, if it exits 0, writes RESULT.json:
the monotonic clock at script start, at the first training step and at
the end, plus the span summary when TRACE is 1.  The ``probe`` form
writes the environment record instead (library versions, BLAS, top-k
backend) without running anything.
"""

import time

T_START = time.monotonic()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"


def import_recbench(tracer=None):
    sys.path.insert(0, str(SRC))
    if tracer is not None:
        tracer.open("runner.import")
    import recbench
    import recbench.cli
    import recbench.runner  # noqa: F401  (the CLI imports it lazily)
    if tracer is not None:
        tracer.close()
    if not Path(recbench.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"error: recbench imported from {recbench.__file__}, not {SRC}")
    return recbench


def probe():
    """The environment the samples run in, as the child sees it."""
    import numpy
    import scipy

    recbench = import_recbench()
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "topk_backend": recbench.TOPK_BACKEND}


def main():
    out, mode = Path(sys.argv[1]), sys.argv[2]
    if mode == "probe":
        out.write_text(json.dumps(probe()), encoding="utf-8")
        return 0
    argv = sys.argv[sys.argv.index("--") + 1:]
    tracer = spans.Tracer() if mode == "1" else None
    recbench = import_recbench(tracer)
    if tracer is not None:
        spans.install(tracer)
        first = None
    else:
        first = spans.hook_first_step(recbench.models.MODEL_REGISTRY)
    code = recbench.cli.main(argv)
    record = {"t_start": T_START, "t_end": time.monotonic(),
              "t_first_step": first[0] if first else None}
    if tracer is not None:
        record["spans"] = tracer.summary()
    if code == 0:
        out.write_text(json.dumps(record), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
