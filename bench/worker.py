"""Workload process: imports ringlab from a checkout and runs CLI operations.

    python3 worker.py SRC CONFIG [TRACE_OUT]

run.py starts it with the work directory as its current directory.  It
first imports ``ringlab.cli`` from SRC and loads CONFIG, timing both as
the set-up time, and writes ``{"setup_s": ...}`` as one JSON line.  Then
it reads one request per line, ``{"argv": [...], "trace": bool}``, runs
``ringlab.cli.run(argv)`` in-process with stdout and stderr captured, and
answers with the latency, the exit status and the captured stderr (plus
per-stage self times and counts when traced).  At end of input it writes
its peak resident memory and, if TRACE_OUT is given, the per-operation
trace records.

Only ``sys`` and ``time`` are imported before the set-up clock starts, so
that every module ringlab needs is paid for inside set-up.
"""

import sys
import time


def main() -> int:
    start = time.perf_counter()
    src, config = sys.argv[1], sys.argv[2]
    sys.path.insert(0, src)
    import ringlab.cli
    from ringlab import devicemodel

    devicemodel.load_config(config)
    setup_s = time.perf_counter() - start

    import contextlib
    import io
    import json
    import resource
    import traceback
    from pathlib import Path

    from tracing import Tracer

    if Path(ringlab.__file__).resolve().parent != (Path(src) / "ringlab").resolve():
        print(f"worker: imported ringlab from {ringlab.__file__}, not {src}", file=sys.stderr)
        return 2
    out = sys.stdout
    out.write(json.dumps({"setup_s": setup_s}) + "\n")
    out.flush()

    tracer = Tracer(ringlab)
    installed = False
    records = []
    for line in sys.stdin:
        request = json.loads(line)
        argv, traced = request["argv"], request["trace"]
        if traced != installed:
            tracer.install() if traced else tracer.uninstall()
            installed = traced
        tracer.reset()
        captured = io.StringIO()
        begin = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(captured):
            try:
                status = ringlab.cli.run(argv)
            except Exception:  # an escaped exception fails the operation, not the run
                status = traceback.format_exc()
        latency = time.perf_counter() - begin
        reply = {"latency_s": latency, "exit": status, "stderr": captured.getvalue()}
        if traced:
            reply.update(self_s=dict(tracer.self_s), counts=dict(tracer.counts))
            records.append({"op": argv[0], "start_s": begin - start, "latency_s": latency,
                            "self_s": dict(tracer.self_s), "calls": dict(tracer.calls),
                            "counts": dict(tracer.counts)})
        out.write(json.dumps(reply) + "\n")
        out.flush()

    if records and len(sys.argv) > 3:
        Path(sys.argv[3]).write_text(json.dumps({"operations": records}, indent=1) + "\n", encoding="utf-8")
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out.write(json.dumps({"peak_rss_kib": peak_kib}) + "\n")
    out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
