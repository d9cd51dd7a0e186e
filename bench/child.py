"""One measured repetition in a fresh interpreter.

    python3 child.py SPAWN_MONOTONIC SPANS_PATH [QRG_ARGV ...]

SPAWN_MONOTONIC is the parent's time.monotonic() just before it started this
process; the clock is system-wide, so setup_s covers process start, the
interpreter and `import qrgxy.cli`. Without QRG_ARGV the child only measures
set-up. SPANS_PATH is "-" for an untraced run; otherwise the run is traced
and the spans are written there.

The last line of stdout is one JSON object with setup_s, run_s, exit, the
captured CLI stdout and stderr, and the per-layer metrics of a traced run.
"""

import sys
import time

import qrgxy.cli

setup_s = time.monotonic() - float(sys.argv[1])

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402


def main() -> None:
    spans_path, argv = sys.argv[2], sys.argv[3:]
    report = {"setup_s": setup_s}
    if argv:
        tracer = None
        if spans_path != "-":
            from tracer import Tracer, layer_metrics

            tracer = Tracer()
            tracer.install()
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = qrgxy.cli.main(argv)
            except SystemExit as exc:  # argparse reports usage errors this way
                code = exc.code
        report.update(run_s=time.perf_counter() - start, exit=code,
                      stdout=out.getvalue(), stderr=err.getvalue())
        if tracer is not None:
            tracer.write(spans_path)
            report["layers"] = layer_metrics(tracer.spans)
            report["absent"] = tracer.absent
    sys.stdout.write(json.dumps(report) + "\n")


main()
