"""Run one benchmark operation in a fresh interpreter.

    python3 bench/child.py OP_JSON RESULT_JSON

OP_JSON describes either a CLI experiment (a config file, read, parsed
and validated exactly as `stableinfer run` does, then `cli.run`) or one
API call (`stable_pdf`, `fractional_moment`) with its raw parameters.
The child records CLOCK_MONOTONIC, which every process on the machine
shares, when the operation's own work starts and ends, so that the
parent can split its wall time into set-up, work and teardown, and its
own peak resident set from /proc/self/status.  With
"trace" set it first installs bench/tracer.py and also reports spans.
"""

import json
import sys
import time


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def peak_rss_kb() -> int:
    """This process's peak resident set.  The wait4 rusage of a child is no
    substitute: its ru_maxrss also counts the parent's resident set, which
    the child had until its exec."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(op_path: str, result_path: str) -> int:
    with open(op_path, encoding="utf-8") as fh:
        op = json.load(fh)
    import stableinfer  # noqa: F401  (the import users pay for)
    from stableinfer import cli, stable

    tracer = None
    if op["trace"]:
        import tracer as tracing
        tracer = tracing.Tracer(op["name"])
        tracing.install(tracer)

    result = {}
    if op["kind"] == "cli":
        with open(op["config_path"], encoding="utf-8") as fh:
            config = cli.validate_config(fh.read())
        start = now()
        manifest = cli.run(config, op["out"], seed_override=op.get("seed_override"))
        end = now()
        result["manifest"] = str(manifest)
    else:
        params = stable.validate_params(*op["params"])
        if op["call"] == "stable_pdf":
            import numpy as np
            points = np.asarray(op["points"], dtype=float)
            start = now()
            values = stable.stable_pdf(params, points)
            end = now()
            result["values"] = [float(v) for v in values]
        elif op["call"] == "fractional_moment":
            start = now()
            moment = stable.fractional_moment(params, op["p"])
            end = now()
            result["moment"] = {"kind": moment.kind, "value": moment.value}
        else:
            raise ValueError(f"unknown call {op['call']!r}")

    result["work_start"] = start
    result["work_end"] = end
    result["peak_rss_kb"] = peak_rss_kb()
    if tracer is not None:
        result["trace"] = tracer.summary()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
