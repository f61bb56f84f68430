"""Span arithmetic and the per-layer metrics of the traced replay.

A span is a dict with id, name, req, parent, start, end (seconds) and attrs,
as perfbench/ocaml/pbench.ml writes them. Each replayed request has one root
span named "request"; every layer call inside it is a child.
"""

from collections import defaultdict


def union_length(intervals):
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """{span id: duration minus the part of it its children cover}."""
    children = defaultdict(list)
    for s in spans:
        children[s["parent"]].append(s)
    out = {}
    for s in spans:
        clipped = [
            (max(c["start"], s["start"]), min(c["end"], s["end"]))
            for c in children[s["id"]]
            if c["end"] > s["start"] and c["start"] < s["end"]
        ]
        out[s["id"]] = (s["end"] - s["start"]) - union_length(clipped)
    return out


def coverage(spans):
    """{req: share of the root span's wall time its layer spans cover}."""
    own = self_times(spans)
    out = {}
    for s in spans:
        if s["name"] == "request":
            wall = s["end"] - s["start"]
            out[s["req"]] = 1.0 - own[s["id"]] / wall if wall > 0 else 1.0
    return out


LAYERS = [
    # (metric, unit, module)
    ("protocol.parse_us", "us", "Cdr_svc.Protocol"),
    ("protocol.encode_us", "us", "Cdr_svc.Protocol"),
    ("result_cache.hit_ratio", "ratio", "Cdr_svc.Result_cache"),
    ("result_cache.find_us", "us", "Cdr_svc.Result_cache"),
    ("result_cache.store_us", "us", "Cdr_svc.Result_cache"),
    ("result_cache.evictions", "count", "Cdr_svc.Result_cache"),
    ("engine.queue_wait_ms", "ms", "Cdr_svc.Engine/Admission (served)"),
    ("engine.service_ms", "ms", "Cdr_svc.Engine (served)"),
    ("router.replica_share_max", "ratio", "Cdr_svc.Router (served stats)"),
    ("model.build_ms", "ms", "Cdr.Model"),
    ("model.rebuild_ms", "ms", "Cdr.Model"),
    ("model.refill_ratio", "ratio", "Cdr.Model"),
    ("model.states", "count", "Cdr.Model"),
    ("model.nnz", "count", "Cdr.Model"),
    ("mg.setup_ms", "ms", "Cdr.Solver_cache / Markov.Multigrid.setup"),
    ("solver_cache.hit_ratio", "ratio", "Cdr.Solver_cache"),
    ("mg.solve_ms", "ms", "Markov.Multigrid.solve_with"),
    ("mg.cycles", "count", "Markov.Multigrid.solve_with"),
    ("mg.sweeps", "count", "Markov.Multigrid.solve_with"),
    ("sweep.point_ms", "ms", "Cdr.Sweep"),
    ("sweep.iterations_per_point", "count", "Cdr.Sweep"),
    ("ber.eval_us", "us", "Cdr.Ber"),
    ("slip.flux_ms", "ms", "Cdr.Cycle_slip"),
    ("passage.first_slip_ms", "ms", "Markov.Passage"),
    ("passage.gap_ratio", "ratio", "Markov.Passage"),
    ("kron_model.build_ms", "ms", "Cdr.Kron_model"),
    ("kron_model.solve_ms", "ms", "Cdr.Kron_model / Markov.Op_multigrid"),
    ("kron_model.iterations", "count", "Cdr.Kron_model / Markov.Op_multigrid"),
    ("env.build_ms", "ms", "Cdr_env.Composed"),
    ("env.solve_ms", "ms", "Cdr_env.Composed"),
    ("env.iterations", "count", "Cdr_env.Composed"),
    ("csr.apply_ns_per_nnz", "ns", "Sparse.Csr via Cdr_op"),
    ("csr.bytes_per_apply", "B", "Sparse.Csr via Cdr_op (computed)"),
    ("csr.ops_per_byte", "flop/B", "Sparse.Csr via Cdr_op (computed)"),
    ("csr.bw_frac", "ratio", "Sparse.Csr via Cdr_op"),
    ("kron_op.apply_ns_per_nnz", "ns", "Sparse.Kron_op via Cdr_op"),
    ("kron_op.bytes_per_apply", "B", "Sparse.Kron_op via Cdr_op (computed)"),
    ("kron_op.ops_per_byte", "flop/B", "Sparse.Kron_op via Cdr_op (computed)"),
    ("kron_op.bw_frac", "ratio", "Sparse.Kron_op via Cdr_op"),
    ("mem.copy_gbps", "GB/s", "machine ceiling, same run"),
    ("trace.coverage", "ratio", "the benchmark's own spans"),
    ("trace.overhead_frac", "ratio", "the benchmark's own spans"),
]


def _mean(xs):
    return sum(xs) / len(xs) if xs else 0.0


def layer_metrics(spans, first_req, served, kernels, passage_gap, overhead_frac, rc_evictions):
    """{metric: (value, calls)} for every metric in LAYERS.

    Spans of requests before `first_req` (the warm-up) are left out. A layer
    the workload never reaches reports 0 with 0 calls."""
    spans = [s for s in spans if s["req"] >= first_req]
    by = defaultdict(list)
    for s in spans:
        by[s["name"]].append(s)

    def dur(name, scale):
        xs = [(s["end"] - s["start"]) * scale for s in by[name]]
        return _mean(xs), len(xs)

    def attr(names, key):
        xs = [s["attrs"][key] for n in names for s in by[n] if key in s["attrs"]]
        return _mean(xs), len(xs)

    def ratio(name, key):
        xs = by[name]
        return (sum(1 for s in xs if s["attrs"].get(key)) / len(xs) if xs else 0.0), len(xs)

    m = {}
    m["protocol.parse_us"] = dur("protocol.parse", 1e6)
    m["protocol.encode_us"] = dur("protocol.encode", 1e6)
    m["result_cache.hit_ratio"] = ratio("result_cache.find", "hit")
    m["result_cache.find_us"] = dur("result_cache.find", 1e6)
    m["result_cache.store_us"] = dur("result_cache.store", 1e6)
    m["result_cache.evictions"] = (float(rc_evictions), len(by["result_cache.store"]))
    m["engine.queue_wait_ms"] = served["queue_wait_ms"]
    m["engine.service_ms"] = served["service_ms"]
    m["router.replica_share_max"] = served["replica_share_max"]
    builds, rebuilds = len(by["model.build"]), len(by["model.rebuild"])
    m["model.build_ms"] = dur("model.build", 1e3)
    m["model.rebuild_ms"] = dur("model.rebuild", 1e3)
    m["model.refill_ratio"] = (rebuilds / (builds + rebuilds) if builds + rebuilds else 0.0, builds + rebuilds)
    m["model.states"] = attr(["model.build", "model.rebuild"], "states")
    m["model.nnz"] = attr(["model.build", "model.rebuild"], "nnz")
    misses = [(s["end"] - s["start"]) * 1e3 for s in by["solver_cache.setup"] if not s["attrs"].get("hit")]
    m["mg.setup_ms"] = (_mean(misses), len(misses))
    m["solver_cache.hit_ratio"] = ratio("solver_cache.setup", "hit")
    m["mg.solve_ms"] = dur("mg.solve", 1e3)
    m["mg.cycles"] = attr(["mg.solve"], "cycles")
    m["mg.sweeps"] = attr(["mg.solve"], "sweeps")
    points = sum(s["attrs"]["points"] for s in by["sweep.run"])
    sweep_s = sum(s["end"] - s["start"] for s in by["sweep.run"])
    sweep_it = sum(s["attrs"]["iterations"] for s in by["sweep.run"])
    m["sweep.point_ms"] = (sweep_s * 1e3 / points if points else 0.0, points)
    m["sweep.iterations_per_point"] = (sweep_it / points if points else 0.0, points)
    m["ber.eval_us"] = dur("ber.eval", 1e6)
    m["slip.flux_ms"] = dur("slip.flux", 1e3)
    m["passage.first_slip_ms"] = dur("passage.first_slip", 1e3)
    m["passage.gap_ratio"] = passage_gap
    m["kron_model.build_ms"] = dur("kron_model.build", 1e3)
    m["kron_model.solve_ms"] = dur("kron_model.solve", 1e3)
    m["kron_model.iterations"] = attr(["kron_model.solve"], "iterations")
    m["env.build_ms"] = dur("env.build", 1e3)
    m["env.solve_ms"] = dur("env.solve", 1e3)
    m["env.iterations"] = attr(["env.solve"], "iterations")
    for op in ("csr", "kron_op"):
        row = kernels[op]
        m[f"{op}.apply_ns_per_nnz"] = (row["apply_ns_per_nnz"], 1)
        m[f"{op}.bytes_per_apply"] = (row["bytes_per_apply"], 1)
        m[f"{op}.ops_per_byte"] = (row["ops_per_byte"], 1)
        m[f"{op}.bw_frac"] = (row["bw_frac"], 1)
    m["mem.copy_gbps"] = (kernels["copy_gbps"], 1)
    cov = coverage(spans)
    m["trace.coverage"] = (min(cov.values()) if cov else 0.0, len(cov))
    m["trace.overhead_frac"] = (overhead_frac, 1)
    return m
