"""One benchmark probe: a fresh process that runs one hodgelab CLI command.

    python3 perfbench/probe.py RESULT.json [--spans SPANS.json] -- CLI_ARGS...
    python3 perfbench/probe.py --versions

The probe imports ``hodgelab.cli`` from the checkout's ``src``, notes the
monotonic clock (the end of set-up), calls ``cli.main(CLI_ARGS)`` and writes
its exit code, clock readings and resource usage to RESULT.json. With
``--spans`` the call runs under ``spans.Tracer`` and the spans are written to
SPANS.json after the call. ``--versions`` prints the library versions.
"""

import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)

import hodgelab.cli  # noqa: E402

T_READY = time.monotonic()


def versions() -> dict:
    import platform

    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        openblas = "unknown"
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "openblas": openblas}


def _call(cli_args):
    try:
        return hodgelab.cli.main(cli_args)
    except SystemExit as exc:  # argparse usage errors
        return exc.code if isinstance(exc.code, int) else 1


def main(argv) -> int:
    if not os.path.abspath(hodgelab.cli.__file__).startswith(SRC + os.sep):
        print(f"error: hodgelab imported from {hodgelab.cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 1
    if argv == ["--versions"]:
        print(json.dumps(versions()))
        return 0
    split = argv.index("--")
    result_path, options, cli_args = argv[0], argv[1:split], argv[split + 1:]
    spans_path = options[1] if options[:1] == ["--spans"] else None
    tracer = None
    if spans_path is None:
        t_start = time.monotonic()
        rc = _call(cli_args)
    else:
        from spans import Tracer

        with Tracer() as tracer:
            t_start = time.monotonic()
            rc = _call(cli_args)
    t_done = time.monotonic()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "rc": rc, "t_ready": T_READY, "t_start": t_start, "t_done": t_done,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_kb": usage.ru_maxrss,
    }
    if tracer is not None:
        with open(spans_path, "w") as fh:
            json.dump({"spans": tracer.spans, "memo_hits": tracer.memo_hits,
                       "memo_attempts": tracer.memo_attempts}, fh)
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
