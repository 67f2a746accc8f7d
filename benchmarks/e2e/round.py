"""One benchmark round in a fresh interpreter: set up, warm up, time ops.

``run.py`` starts this script once per round; it is not meant to be run
by hand::

    python round.py WORKLOAD SEED N_OPS MODE RUN_DIR RESULT_JSON

``MODE`` is ``plain`` (the timed round), ``spans`` (layer spans, see
``spans.py``) or ``profile`` (EventProfiler DES shares).  Every file the
round writes lives under ``RUN_DIR``, which the harness deletes after
reading ``RESULT_JSON``.  Set-up time runs from before ``import repro``
to the end of input generation plus one untimed warm-up op.
"""

import time

T0 = time.perf_counter()

import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def main(argv: list[str]) -> int:
    workload, seed, n_ops, mode, run_dir, result_path = argv
    import spans
    import workloads
    from repro.runtime.invariants import set_strict

    set_strict(True)
    wl = workloads.WORKLOADS[workload]
    inputs = wl.inputs(int(seed), int(n_ops))
    errors = []
    try:
        wl.run(inputs[0], os.path.join(run_dir, "warmup"))
    except Exception:  # the timed op 0 fails too and is counted there
        errors.append(f"warm-up: {traceback.format_exc(limit=3)}")
    setup_s = time.perf_counter() - T0

    tracer = spans.Tracer() if mode == "spans" else None
    des_seconds: dict[str, float] = {}
    if tracer is not None:
        spans.install(tracer)
    elif mode == "profile":
        spans.install_profiler(des_seconds)

    times, digests, calls, model_errors = [], [], [], []
    clock = time.perf_counter
    for index, op in enumerate(inputs):
        op_dir = os.path.join(run_dir, f"op{index}")
        start = clock()
        try:
            if tracer is not None:
                out = tracer.run_op(index, lambda: wl.run(op, op_dir))
            else:
                out = wl.run(op, op_dir)
        except Exception:  # an op that raises counts as failed, run goes on
            times.append(clock() - start)
            digests.append(None)
            calls.append(0)
            errors.append(f"op {index}: {traceback.format_exc(limit=3)}")
            continue
        times.append(clock() - start)
        digests.append(hashlib.sha256(out.canonical).hexdigest())
        calls.append(out.calls)
        if out.model_error is not None:
            model_errors.append(out.model_error)

    result = {
        "setup_s": setup_s,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "times": times,
        "digests": digests,
        "calls": calls,
        "errors": errors,
        "model_error_max": max(model_errors, default=None),
    }
    if tracer is not None:
        result["spans"] = tracer.spans
        result["counters"] = dict(tracer.counters)
    if mode == "profile":
        result["des_seconds"] = des_seconds
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
