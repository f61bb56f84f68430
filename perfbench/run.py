#!/usr/bin/env python3
"""The repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds cdr_serve and the benchmark's OCaml
half with dune, drives the real cdr_serve over its JSONL protocol from this
one process, checks every answer against perfbench/references.json, and
prints one JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1 serves
one round (or the open-loop schedule), replays the same request lines
in-process through perfbench/ocaml/pbench.exe with spans, and reports the
per-layer metrics; the table printed before the result line names the
workload (or the layer probe) each was measured on. Workloads are defined
in workloads.py.
"""

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import answers  # noqa: E402
import served  # noqa: E402
import stats  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SERVE_TARGET = "bin/cdr_serve.exe"
PBENCH_TARGET = "perfbench/ocaml/pbench.exe"
SERVE_EXE = os.path.join("_build", "default", SERVE_TARGET)
PBENCH_EXE = os.path.join("_build", "default", PBENCH_TARGET)
OUT_DIR = ".perfbench"
SETUPS = 3  # set-ups per end-to-end run; setup_s is their median
CLIENT_TIMEOUT_S = 60.0  # per-request client-side deadline
STATS_TIMEOUT_S = 5.0
RUN_LIMIT_S = 170  # the whole run after the build, processes stopped included
PROBE = "layer-probe"  # the source named for per-layer values taken from LAYER_PROBE

ACTIVE = []  # servers to stop on any exit path


class Abort(Exception):
    pass


def on_signal(signum, _frame):
    raise Abort(f"signal {signum}")


def on_alarm(_signum, _frame):
    raise Abort(f"run exceeded {RUN_LIMIT_S} s")


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib") and os.path.isdir("bin")):
        raise Abort("run from the repository root: no dune-project, lib/ or bin/ here")
    cmd = ["dune", "build", "--root", ".", "./" + SERVE_TARGET, "./" + PBENCH_TARGET]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        raise Abort("build failed")


def start_server(wl, log):
    srv = served.Server(SERVE_EXE, wl.server_args, log)
    ACTIVE.append(srv)
    return srv


def stop_server(srv):
    srv.close()
    ACTIVE.remove(srv)


def set_up(wl, k, log):
    """Spawn the server and pay one cold build and setup per structure.
    Returns (server, seconds, [(item, line, response)] of the warm-up)."""
    t0 = time.perf_counter()
    srv = start_server(wl, log)
    warm = []
    for it, line in workloads.warmup_lines(wl, k):
        _, got = srv.ask(line, served.rid_of(line), CLIENT_TIMEOUT_S)
        if got is None or not got[1].get("ok"):
            raise Abort(f"warm-up request {it.name} failed: {got and got[1]}")
        warm.append((it, line, got[1]))
    return srv, time.perf_counter() - t0, warm


def replica_share_max(stats_response):
    rows = (stats_response or {}).get("result", {}).get("replicas")
    if not rows:
        return 1.0
    counts = [
        sum(r["count"] for r in row.get("requests", []) if r["kind"] != "stats") for row in rows
    ]
    return max(counts) / sum(counts) if sum(counts) else 0.0


def evaluate(records, refs):
    """Checks every answer, setting rec.ok; returns (failed, reference
    mismatches, reasons per failing pool item)."""
    failed, mismatches, notes = 0, 0, {}
    for rec in records:
        ok, reasons, mismatch = answers.check(refs[rec.item.name]["answers"], rec.response)
        rec.ok = ok
        if not ok:
            failed += 1
            mismatches += mismatch
            notes.setdefault(rec.item.name, reasons)
    return failed, mismatches, notes


def result_cache_hits(records, warm):
    """Which responses the result cache replayed: a replay carries the exact
    elapsed_ms of the cold response it was stored from, which may be one of
    the warm-up's."""
    seen = {(it.name, response.get("elapsed_ms")) for it, _, response in warm}
    hits = set()
    for rec in records:
        if rec.response and rec.response.get("ok"):
            key = (rec.item.name, rec.response.get("elapsed_ms"))
            if key in seen:
                hits.add(rec.rid)
            seen.add(key)
    return hits


def backlog(records, t):
    """Requests sent by time t and not yet answered at t."""
    return sum(1 for r in records if r.sent <= t and (r.received is None or r.received > t))


def segments(wl, records):
    """Open loop: per fixed rate, its records, tail, rate as sent and whether
    it meets the latency limit. The lead-in has no rate and is left out.

    A rate's backlog is growing when the requests outstanding at its last
    send exceed those at its first by more than half the latency limit's
    worth of its arrivals. Counting outstanding requests, rather than
    comparing latencies early and late in a rate, keeps a burst of result
    cache misses near its end from reading as a backlog."""
    out = []
    for rate in wl.rates:
        seg = [r for r in records if r.rate == rate]
        lats = [r.latency_ms() if r.ok else float("inf") for r in seg]
        value, pct, beyond, n = stats.tail(lats)
        grown = backlog(records, seg[-1].sent) - backlog(records, seg[0].sent)
        growing = grown / rate > wl.latency_limit_ms / 2e3
        # the rate as sent: sends over the measured send span
        sent_rps = len(seg) / (seg[-1].sent - seg[0].sent + 1.0 / rate)
        passes = value <= wl.latency_limit_ms and not growing and all(r.ok for r in seg)
        out.append({"rate": rate, "records": seg, "tail_ms": value, "tail_pct": pct, "n": n,
                    "sent_rps": sent_rps, "growing": growing, "passes": passes})
    return out


def knee(segs):
    """The goodput segment. The rates ascend, so ideally the first k meet
    the limit and the rest miss; noise flips a segment near the knee either
    way. Taking the k-th rate, k = how many meet, keeps one flipped segment
    from moving the figure by more than one step, where the first miss or
    the last meet would move it by several. With none meeting, the lowest."""
    return segs[max(0, sum(s["passes"] for s in segs) - 1)]


def end_to_end(wl, records, wall, late_ms, setup_times, cpu_ms, rss_mb, failed):
    answered = [r for r in records if r.received is not None]
    lines = []
    if wl.loop == "open":
        segs = segments(wl, records)
        top = knee(segs)
        goodput = top["sent_rps"]
        for s in segs:
            lines.append(
                f"rate {s['rate']:g} rps: tail p{s['tail_pct']:.1f} of {s['n']} = {s['tail_ms']:.2f} ms, "
                f"sent {s['sent_rps']:.2f} rps, backlog {'growing' if s['growing'] else 'steady'}, "
                f"{'meets' if s['passes'] else 'misses'} the {wl.latency_limit_ms:g} ms limit"
            )
        lines.append(f"goodput at {top['rate']:g} rps, the k-th rate with k = {sum(s['passes'] for s in segs)} "
                     f"rates meeting the limit; latencies are over the first rate, {segs[0]['rate']:g} rps")
        lines.append(f"generator lateness: max {late_ms:.2f} ms behind schedule")
        # a fixed light load: near the knee queueing, which swings with the
        # machine's speed, would set the latency
        answered = [r for r in segs[0]["records"] if r.received is not None]
    else:
        goodput = sum(1 for r in answered if r.ok and r.latency_ms() <= wl.latency_limit_ms) / wall
    lats = [r.latency_ms() for r in answered]
    _, pct, beyond, n = stats.tail(lats)
    tail = stats.quantile(lats, pct / 100)
    lines.insert(0, f"latency tail: p{pct:.1f} of {n} samples ({beyond} beyond) = {tail:.3f} ms "
                    f"(Harrell-Davis estimates, as is the median)")
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "latency_p50_ms": (stats.quantile(lats, 0.5), "ms"),
        "latency_tail_ms": (tail, "ms"),
        "throughput_rps": (sum(r.received is not None for r in records) / wall, "1/s"),
        "goodput_rps": (goodput, "1/s"),
        "ok_frac": (1.0 - failed / len(records), "ratio"),
        "peak_rss_mb": (rss_mb, "MB"),
        "cpu_ms_per_req": (cpu_ms / len(records), "ms"),
    }
    return metrics, lines


def pbench(args, stdin_lines, timeout=150):
    proc = subprocess.run(
        [PBENCH_EXE] + args,
        input="\n".join(stdin_lines) + "\n",
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise Abort(f"pbench {args[0]} failed: {proc.stderr.strip()[-400:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def load_jsonl(path):
    with open(path) as f:
        return [json.loads(l) for l in f if l.strip()]


def replay(lines, result_cache, name):
    """Runs `pbench replay`; returns (summary, {index: response}, spans)."""
    resp_path = os.path.join(OUT_DIR, f"{name}-responses.jsonl")
    spans_path = os.path.join(OUT_DIR, f"{name}-spans.jsonl")
    cache = ["--result-cache", str(result_cache)] if result_cache else []
    summary = pbench(["replay", "--responses", resp_path, "--spans-out", spans_path] + cache, lines)
    return summary, {r["i"]: r["response"] for r in load_jsonl(resp_path)}, load_jsonl(spans_path)


def passage_gap_ratio(responses):
    """(median relative gap between a slip answer's first passage and its
    flux mean, number of answers the rule applies to). A non-finite first
    passage is a failure the checker counts; the median is over the rest."""
    gaps = [answers.passage_gap((r or {}).get("result", {})) for r in responses]
    gaps = [g for g in gaps if g is not None and math.isfinite(g)]
    return (statistics.median(gaps) if gaps else 0.0), len(gaps)


def per_layer(wl, records, warm, stats_response):
    """Replays the served lines in-process; returns ({metric: (value, unit)},
    {metric: measured_on}, lines, replay mismatches)."""
    warm_lines = [line for _, line, _ in warm]
    lines = warm_lines + [r.line for r in records]
    traced, replayed, span_list = replay(lines, wl.result_cache, "replay")
    # the span count times the directly timed cost of one span, over the
    # replay's wall time without them
    span_s = traced["spans"] * traced["span_cost_s"]
    overhead = span_s / (traced["wall_s"] - span_s)
    kernels = pbench(["kernels"], [workloads.item(wl, wl.kernel_item).request("k")])
    probe_lines = [it.request(f"p{i}") for i, it in enumerate(workloads.LAYER_PROBE)]
    probe, probe_responses, probe_spans = replay(probe_lines, workloads.PROBE_CACHE, "probe")

    first = len(warm_lines)
    mine = [replayed.get(first + i) for i in range(len(records))]
    mismatch = sum(
        1 for rec, m in zip(records, mine) if rec.response is not None and not answers.same_answers(m, rec.response)
    )

    hits = result_cache_hits(records, warm)
    cold = [r for r in records if r.received is not None and r.response.get("ok") and r.rid not in hits]
    served_layers = {
        "queue_wait_ms": (
            statistics.median([(r.received - r.sent) * 1e3 - r.response["elapsed_ms"] for r in cold]) if cold else 0.0,
            len(cold),
        ),
        "service_ms": (statistics.median([r.response["elapsed_ms"] for r in cold]) if cold else 0.0, len(cold)),
        "replica_share_max": (replica_share_max(stats_response), 1),
    }

    def metrics_of(summary, responses, span_list, first_req):
        evictions = summary.get("result_cache", {}).get("evictions", 0)
        return spans.layer_metrics(span_list, first_req, served_layers, kernels,
                                   passage_gap_ratio(responses), overhead, evictions)

    m = metrics_of(traced, mine, span_list, first)
    from_probe = metrics_of(probe, probe_responses.values(), probe_spans, 0)
    out, measured_on, table = {}, {}, []
    for name, unit, module in spans.LAYERS:
        value, calls = m[name]
        on, source = wl.name, f"calls={calls:<5d} measured_on={wl.name}"
        if calls == 0 and from_probe[name][1] > 0:
            value, on = from_probe[name][0], PROBE
            source = f"calls=0     {wl.name} never reaches it; measured_on={PROBE} ({from_probe[name][1]} calls)"
        out[name], measured_on[name] = (value, unit), on
        table.append(f"layer {name:28s} {value:14.6g} {unit:7s} {source}  [{module}]")
    table.append(
        f"kernel rows on {wl.kernel_item}: csr {kernels['csr']['label']}, kron {kernels['kron_op']['label']}; "
        f"bytes per apply are computed from array sizes; copy ceiling measured with two "
        f"{kernels['copy_array_mib']} MiB arrays, below 4x the {llc_mib()} MiB last-level cache the "
        f"machine reports (4x would not fit the benchmark's memory budget), so bw_frac is against a "
        f"cache-resident copy"
    )
    table.append(f"replay: {len(lines)} requests, {traced['wall_s']:.3f} s with {traced['spans']} spans at "
                 f"{traced['span_cost_s'] * 1e9:.0f} ns each (timed directly), "
                 f"{mismatch} answers differing from the served ones")
    return out, measured_on, table, mismatch


def llc_mib():
    best = 0
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for idx in (d for d in os.listdir(base) if d.startswith("index")):
            with open(os.path.join(base, idx, "size")) as f:
                size = f.read().strip()
            best = max(best, int(size.rstrip("KMG")) * {"K": 1, "M": 1024, "G": 1 << 20}.get(size[-1], 1))
    except (OSError, ValueError):
        return 0
    return best // 1024


def result_line(correct, attempted, failed, metrics):
    """The result object of the contract: exactly these four keys, and each
    metric exactly {value, unit}. Where a per-layer value was measured is
    printed in the table above it and kept in the --record file."""
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run(args):
    wl = workloads.WORKLOADS[args.workload]
    os.makedirs(OUT_DIR, exist_ok=True)
    log = os.path.join(OUT_DIR, f"serve-{wl.name}.log")
    refs = answers.load_refs()
    stale = answers.stale_items(wl.pool, refs)
    if stale:
        raise Abort(f"references missing or stale for {stale}; regenerate with perfbench/make_refs.py")

    setup_times = []
    n_setups = 1 if args.trace else SETUPS
    for k in range(n_setups):
        srv, dt, warm = set_up(wl, k, log)
        setup_times.append(dt)
        if k < n_setups - 1:
            stop_server(srv)

    before = served.usage(srv.group_pids())
    if wl.loop == "closed":
        rounds = workloads.closed_rounds(wl, args.seed)
        n_rounds = 1 if args.trace else workloads.rounds_for(wl, args.seconds)
        records, wall, late = served.closed_loop(srv, rounds, n_rounds, CLIENT_TIMEOUT_S)
    else:
        schedule = workloads.open_schedule(wl, args.seed, args.seconds)
        records, wall, late = served.open_loop(srv, schedule, CLIENT_TIMEOUT_S)
    # a server still stuck on a timed-out request gets a short stats deadline
    _, got = srv.ask(json.dumps({"id": "stats", "kind": "stats"}), "stats", STATS_TIMEOUT_S)
    stats_response = got[1] if got else None
    after = served.usage(srv.group_pids())
    stop_server(srv)

    failed, mismatches, notes = evaluate(records, refs)
    cpu_ms = sum(c for _, c in after.values()) - sum(before.get(pid, (0, 0))[1] for pid in after)
    rss_mb = sum(h for h, _ in after.values())
    lines = [f"workload {wl.name} ({wl.loop} loop): {len(records)} requests, {failed} failed, "
             f"{mismatches} disagreeing with the references, {wall:.2f} s"]
    lines += [f"failed {name}: {'; '.join(r)}" for name, r in notes.items()]
    if args.trace:
        metrics, measured_on, more, replay_mismatch = per_layer(wl, records, warm, stats_response)
        mismatches += replay_mismatch
    else:
        metrics, more = end_to_end(wl, records, wall, late, setup_times, cpu_ms, rss_mb, failed)
        measured_on = {}
        more.append(f"failed_frac = {failed / len(records):.4f} ({failed} of {len(records)}); ok_frac = 1 - failed_frac")
    for line in lines + more:
        print(line)
    result = result_line(mismatches == 0, len(records), failed, metrics)
    if args.record:
        with open(args.record, "a") as f:
            f.write(json.dumps({"workload": wl.name, "seed": args.seed, "trace": args.trace, "result": result,
                                "measured_on": measured_on}) + "\n")
    try:
        line = json.dumps(result, allow_nan=False)
    except ValueError:
        raise Abort(f"a metric is not a finite number: {result['metrics']}")
    print(line)


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", help="also append {workload, seed, trace, result} to this JSONL file (compare.py input)")
    args = ap.parse_args()
    for sig in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(sig, on_signal)
    signal.signal(signal.SIGALRM, on_alarm)
    try:
        build()
        signal.alarm(RUN_LIMIT_S)
        run(args)
    except Abort as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
        for srv in list(ACTIVE):
            srv.close(grace=1.0)
    return 0


if __name__ == "__main__":
    sys.exit(main())
