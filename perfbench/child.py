"""One `spinfcs run` in a fresh interpreter, timed from inside.

    python3 perfbench/child.py REPORT CONFIG OUT [--setup-only] [--spans FILE RUN_ID]

Imports `spinfcs`, loads the config and notes the monotonic clock (the end
of set-up), then calls the CLI entry point exactly as `spinfcs run --config
CONFIG --out OUT --threads 1` would.  REPORT receives a JSON object with the
set-up clock, the run's wall time, its exit code, any uncaught traceback
and the process's peak RSS.  With --spans the layer entry points are traced
and the spans are written to FILE when the run ends.
"""

import json
import resource
import sys
import time
import traceback


def main(argv) -> int:
    report_path, config_path, out_dir, *rest = argv
    import spinfcs.cli

    with open(config_path) as fh:
        json.load(fh)  # config load is part of set-up
    report = {"ready_clock": time.monotonic()}
    if rest[:1] != ["--setup-only"]:
        tracer = None
        if rest[:1] == ["--spans"]:
            from spans import Tracer

            tracer = Tracer(rest[2])
            tracer.install()
        cli_args = ["run", "--config", config_path, "--out", out_dir, "--threads", "1"]
        start = time.perf_counter()
        try:
            report["exit_code"] = spinfcs.cli.main(cli_args)
        except Exception:
            report["exit_code"] = None
            report["error"] = traceback.format_exc()
        report["wall_s"] = time.perf_counter() - start
        if tracer is not None:
            tracer.save(rest[1])
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(report_path, "w") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
