"""One fresh interpreter's share of a benchmark run; started by run.py.

Reads a JSON job on stdin and writes one JSON report line on stdout.  The
job's mode is one of:

  import   import goppa_orbits.cli and report how long that took;
  cli      also run one CLI invocation in-process, as the console script
           would, with its stdout captured and its latency timed;
  session  also run orbit queries in one library session until the time
           budget or the query count is used up.

With "trace" set, tracer.Tracer wraps the library after the import, and
the report carries its counters and spans.

Each timed region (the import, a CLI op, an orbit query) also reports the
host's speed at that time: the median time of BRACKET_SAMPLES rounds of
reference_s() right before it and right after it, averaged.

Only sys and time are imported before goppa_orbits.cli is timed, so its
import pays for every module it needs, as a real invocation does.
"""

import sys
import time

PACKAGE = "goppa_orbits"
BRACKET_SAMPLES = 4
WARM_UP_ROUNDS = 3  # a fresh interpreter runs its first rounds slowly


class _RefField:
    """GF(32) with log tables and a checked, method-dispatched multiply: the
    shape of the library's field arithmetic, rebuilt here so that no change
    to the library can change the reference."""

    def __init__(self) -> None:
        self.m = 5
        exp = [1] * 62
        for i in range(1, 31):
            v = exp[i - 1] << 1
            exp[i] = v ^ 0b100101 if v & 32 else v
        exp[31:] = exp[:31]
        log = [0] * 32
        for i in range(31):
            log[exp[i]] = i
        self._exp, self._log = exp, log

    def _check(self, *elems: int) -> None:
        for a in elems:
            if a >> self.m or a < 0:
                raise ValueError(a)

    def mul(self, a: int, b: int) -> int:
        self._check(a, b)
        if a == 0 or b == 0:
            return 0
        return self._exp[self._log[a] + self._log[b]]


_REF_FIELD = _RefField()


def _sort_key(p: tuple) -> tuple:
    return len(p), p[::-1]


def reference_s() -> float:
    """Seconds for one round of a fixed computation in the library's style:
    checked field multiplies through a bound method, tuples built from
    lists, a set of results and a keyed sort.

    On a shared host the program's speed swings with its neighbours' load.
    This round swings with it: over a 1.9x swing its ratio to the orbit
    queries held within 2 %, where a bare arithmetic loop missed by 15 %.
    It takes about half a millisecond.
    """
    mul = _REF_FIELD.mul
    t0 = time.perf_counter()
    seen = set()
    for a in range(1, 32):
        cur = (1,)
        for _ in range(6):
            nxt = [0] * (len(cur) + 1)
            for i, t in enumerate(cur):
                if t:
                    nxt[i] ^= mul(t, a)
                    nxt[i + 1] ^= mul(t, 32 - a)
            cur = tuple(nxt)
        seen.add(cur)
    sorted(seen, key=_sort_key)
    return time.perf_counter() - t0


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def _bracket() -> float:
    return _median([reference_s() for _ in range(BRACKET_SAMPLES)])


def _memo_totals() -> tuple[int, int]:
    """(entries, hits) summed over every lru_cache memo in the package."""
    entries = hits = 0
    for name, mod in list(sys.modules.items()):
        if name == PACKAGE or name.startswith(PACKAGE + "."):
            for obj in vars(mod).values():
                if hasattr(obj, "cache_info"):
                    info = obj.cache_info()
                    entries += info.currsize
                    hits += info.hits
    return entries, hits


def _run_cli(cli, argv: list[str], ref_before: float) -> dict:
    import contextlib
    import io
    import traceback

    out = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crash is a wrong answer, not a refusal
        rc, out = None, io.StringIO(traceback.format_exc())
    result = {"rc": rc, "op_s": time.perf_counter() - t0, "ref_s": (ref_before + _bracket()) / 2}
    result["stdout" if rc is not None else "error"] = out.getvalue()
    return result


def _run_session(job: dict, tracer, ref_before: float) -> list:
    import contextlib

    from goppa_orbits import action
    from goppa_orbits.polyq import Parameters

    gf = action.make_field(3)
    params = Parameters(3, 7, strict=False)
    queries = [tuple(f) for f in job["queries"]]
    budget, max_ops = job.get("seconds"), job.get("max_ops")
    results = []
    start = time.perf_counter()
    i = 0
    while max_ops is None or i < max_ops:
        # A long budget cycles the list; the cycle is far longer than any memo.
        f = queries[i % len(queries)]
        if tracer:
            tracer.op = i
        t0 = time.perf_counter()
        stab = action.stabilizer(gf, f)
        fixed_div = action.is_orbit_sigma_r_fixed(f, params, "divisibility")
        fixed_direct = action.is_orbit_sigma_r_fixed(f, params, "direct")
        dt = time.perf_counter() - t0
        ref_after = _bracket()
        with tracer.suspended() if tracer else contextlib.nullcontext():
            size = action.pgl_orbit(gf, f).size
        results.append([i % len(queries), [list(m) for m in stab], fixed_div, fixed_direct, size,
                        dt, (ref_before + ref_after) / 2])
        ref_before = ref_after
        i += 1
        if budget is not None:
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / i > budget:
                break
    return results


def main() -> None:
    job_text = sys.stdin.read()
    fresh = not any(k == PACKAGE or k.startswith(PACKAGE + ".") for k in sys.modules)
    for _ in range(WARM_UP_ROUNDS):
        reference_s()
    ref_before = _bracket()
    t0 = time.perf_counter()
    import goppa_orbits.cli as cli

    setup_s = time.perf_counter() - t0
    ref_after = _bracket()

    import json
    import os
    import resource

    job = json.loads(job_text)
    report = {"pid": os.getpid(), "fresh": fresh, "setup_s": setup_s, "setup_ref_s": (ref_before + ref_after) / 2,
              "memo_entries": _memo_totals()[0]}
    tracer = None
    if job.get("trace"):
        from tracer import Tracer

        tracer = Tracer.install()
    if job["mode"] == "cli":
        report.update(_run_cli(cli, job["argv"], ref_after))
        if job.get("warm_repeat") and report["rc"] is not None:
            hits0 = _memo_totals()[1]
            warm = _run_cli(cli, job["argv"], ref_after)
            report["warm"] = {"op_s": warm["op_s"], "memo_hits": _memo_totals()[1] - hits0,
                              "same_stdout": warm.get("stdout") == report["stdout"]}
    elif job["mode"] == "session":
        report["results"] = _run_session(job, tracer, ref_after)
    report["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer:
        report["trace"] = tracer.report()
    sys.stdout.write(json.dumps(report) + "\n")


if __name__ == "__main__":
    main()
