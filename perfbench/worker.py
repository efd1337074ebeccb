"""Benchmark child process: set up platoonsim, then run a plan's commands.

Usage: python3 worker.py PLAN.json

The plan (written by run.py) names the source tree, the generated configs,
the CLI argv of each command and where to write the result. The worker runs
in a fresh interpreter, so `setup_s` covers the whole import. Commands run
back to back in-process through `platoonsim.cli.main` (a closed loop with
one client); each command's stdout and stderr are kept for the output gate.
With a trace path the public functions are wrapped by `tracer.install`
before set-up, and the spans are written to that path at exit. Untraced,
a speed.SpeedSampler runs through set-up and the timed phase, and every
time is reported both as wall seconds and as reference-speed seconds.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import traceback

from speed import COMMAND_EXPONENT, SETUP_EXPONENT, SpeedSampler


def main(plan_path: str) -> int:
    with open(plan_path) as fh:
        plan = json.load(fh)

    sampler = SpeedSampler()
    if plan.get("sample_speed"):
        sampler.start()
    t0 = sampler.mark()
    sys.path.insert(0, plan["src"])
    import platoonsim.cli as cli  # noqa: E402  (the import is what set-up times)
    from platoonsim import config, metrics

    tracer = None
    if plan.get("trace_path"):
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    for path in plan["configs"]:
        config.build_scenario(config.load_config(path))
    metrics.default_fuel_coefficients()
    setup_wall, setup_ref = sampler.scaled(t0, SETUP_EXPONENT)

    result = {"setup_wall_s": setup_wall, "setup_s": setup_ref, "commands": []}
    if not plan.get("setup_only"):
        w0 = sampler.mark()
        for argv in plan["commands"]:
            out, err = io.StringIO(), io.StringIO()
            c0 = sampler.mark()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = cli.main(argv)
            except Exception:  # a crash fails this command, not the benchmark
                rc = -1
                err.write(traceback.format_exc())
            wall, ref = sampler.scaled(c0, COMMAND_EXPONENT)
            result["commands"].append(
                {"rc": rc, "wall_seconds": wall, "seconds": ref, "stdout": out.getvalue(),
                 "stderr": err.getvalue()[-4000:]}
            )
        result["wall_raw_s"], result["wall_s"] = sampler.scaled(w0, COMMAND_EXPONENT)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if plan.get("sample_speed"):
        sampler.stop()
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer)
        tracer.save(plan["trace_path"])

    with open(plan["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
