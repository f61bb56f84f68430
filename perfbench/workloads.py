"""Workload definitions and seeded request generation.

Every workload draws its requests from a fixed, finite pool of parameter
sets, each with a committed reference answer (references.json). The seed
only changes order (closed loops) or draw sequence (the open loop); it never
leaves the pool, so every answer can be checked.
"""

import json
import random
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Item:
    """One pool entry: a request template without its id."""

    name: str
    kind: str
    params: dict
    extra: dict = field(default_factory=dict)  # "lengths" / "values"

    def request(self, rid):
        body = {"id": rid, "kind": self.kind}
        body.update(self.extra)
        body["params"] = dict({"version": 2}, **self.params)
        return json.dumps(body, separators=(",", ":"), sort_keys=False)

    def template(self):
        """The request line minus its id: what a reference is keyed on."""
        line = json.loads(self.request("_"))
        del line["id"]
        return line


@dataclass(frozen=True)
class Workload:
    name: str
    loop: str  # "closed" or "open"
    server_args: tuple
    pool: tuple
    # closed loops: the pool split into runs of item names kept in order;
    # the seed permutes the episodes (see closed_rounds)
    episodes: tuple
    warmup: tuple  # Items sent once per set-up; answers checked for ok only
    kernel_item: str  # pool item whose operators the kernel rows use
    latency_limit_ms: float
    result_cache: int = 0  # capacity the replay puts in front, as the server does
    rates: tuple = ()  # open loop: fixed offered rates, requests/s, ascending


# Closed loops: a run serves seconds // ROUND_S whole rounds, so every run
# measures the same requests however fast the machine is at the time.
# ROUND_S was a round's duration when the benchmark was defined; rounds now
# take 11-15 s (paper-study) and 11-13 s (matrix-free) on 2 cores, so a 30 s
# run serves its three rounds in 33-45 s.
ROUND_S = 10.0
# Open loop: the Zipf exponent of popularity over the pool, and the length
# of the untimed lead-in that fills the result cache.
ZIPF_S = 1.2
LEAD_IN_S = 3.0
# The share of the open loop's run held at its first rate, where latency is
# measured. Its median is a result-cache hit of about 0.45 ms, which a burst
# of contention from other tenants of the host moves by a third; holding the
# rate for two thirds of the run (about 170 requests) dilutes such bursts.
LATENCY_SHARE = 2 / 3


def analyze(name, params, **extra):
    return Item(name, "analyze", params, extra)


def _paper_study():
    grid128 = {"grid": 128}
    pool = (
        # drift/p01/p10 changes take the Model.rebuild refill path and hit
        # the solver setup cache; sigma_w changes move the nonzero set and
        # build fresh
        analyze("analyze-nominal", grid128),
        analyze("analyze-p01p10-0.3", {"grid": 128, "p01": 0.3, "p10": 0.3}),
        analyze("analyze-drift-0.05", {"grid": 128, "noise": {"drift_mean": 0.05}}),
        analyze("analyze-sigma-0.05", {"grid": 128, "noise": {"sigma_w": 0.05}}),
        analyze("analyze-sigma-0.08", {"grid": 128, "noise": {"sigma_w": 0.08}}),
        Item("sigma-scan", "sigma", grid128, {"values": [0.05, 0.0625, 0.08]}),
        Item("counter-sweep", "sweep", grid128, {"lengths": [2, 4, 8]}),
    ) + tuple(
        # counters 2..8 at grid 64: first passage disagrees with the flux
        # mean (a known defect); the checker must count these as failed
        Item(f"slip-g64-k{k}", "slip", {"grid": 64, "loop": {"counter": k}})
        for k in (2, 3, 4, 6, 8)
    )
    warmup = (analyze("warm-g128", grid128),) + tuple(
        analyze(f"warm-g64-k{k}", {"grid": 64, "loop": {"counter": k}}) for k in (2, 3, 4, 6, 8)
    )
    # the engine refills a model in place when the model key repeats, so a
    # request's cost depends on its predecessor: keeping same-key requests in
    # one episode makes each request take the same path whatever the seed
    episodes = (
        ("analyze-nominal", "analyze-p01p10-0.3", "analyze-drift-0.05"),
        ("analyze-sigma-0.05", "analyze-sigma-0.08"),
        ("sigma-scan",),
        ("counter-sweep",),
    ) + tuple((f"slip-g64-k{k}",) for k in (2, 3, 4, 6, 8))
    return Workload(
        name="paper-study",
        loop="closed",
        server_args=("--jobs", "1"),
        pool=pool,
        episodes=episodes,
        warmup=warmup,
        kernel_item="analyze-nominal",
        latency_limit_ms=10000.0,
    )


def _matrix_free():
    def kron(name, params):
        return analyze(name, dict(params, backend="kron"))

    def env(name, preset, grid):
        return Item(
            name,
            "env",
            {"grid": grid, "loop": {"counter": 2}, "backend": "kron", "env": preset},
        )

    pool = (
        kron("kron-g128-k2", {"grid": 128, "loop": {"counter": 2}}),
        kron("kron-g128-k2-p01p10-0.3", {"grid": 128, "loop": {"counter": 2}, "p01": 0.3, "p10": 0.3}),
        kron("kron-g128-k2-sigma-0.08", {"grid": 128, "loop": {"counter": 2}, "noise": {"sigma_w": 0.08}}),
        kron("kron-g64-k4", {"grid": 64, "loop": {"counter": 4}}),
        kron("kron-g64-k4-drift-0.05", {"grid": 64, "loop": {"counter": 4}, "noise": {"drift_mean": 0.05}}),
        env("env-bursty-g32", "bursty", 32),
        env("env-bursty-g64", "bursty", 64),
        env("env-crosstalk-g32", "crosstalk", 32),
        env("env-crosstalk-g64", "crosstalk", 64),
    )
    # the engine memoizes only the most recent Kronecker and composed model,
    # so one request per family is the whole warm-up
    warmup = (
        kron("warm-kron-g64-k2", {"grid": 64, "loop": {"counter": 2}}),
        env("warm-env-bursty-g32", "bursty", 32),
    )
    # The engine carries the previous Kronecker model's IAD setup into a
    # same-key request, and the previous env model's into a same-shape one.
    # Both transplants crash on some predecessors (sigma_w after a same-key
    # request; bursty after crosstalk), so the episodes fix each request's
    # predecessor and those answers fail the same way under every seed.
    episodes = (
        ("kron-g128-k2", "kron-g128-k2-p01p10-0.3", "kron-g128-k2-sigma-0.08"),
        ("kron-g64-k4", "kron-g64-k4-drift-0.05"),
        ("env-crosstalk-g32", "env-bursty-g32", "env-crosstalk-g64", "env-bursty-g64"),
    )
    return Workload(
        name="matrix-free",
        loop="closed",
        server_args=("--jobs", "1"),
        pool=pool,
        episodes=episodes,
        warmup=warmup,
        kernel_item="kron-g128-k2",
        latency_limit_ms=10000.0,
    )


CACHED_COUNTERS = tuple(range(2, 10))
CACHE_CAPACITY = 16


def _cached_serving():
    def params(k, **noise):
        p = {"grid": 16, "loop": {"phases": 16, "counter": k}}
        if noise:
            p["noise"] = noise
        return p

    pool = []
    for k in CACHED_COUNTERS:
        pool += [
            analyze(f"cs-analyze-k{k}", params(k)),
            analyze(f"cs-analyze-k{k}-sigma-0.08", params(k, sigma_w=0.08)),
            Item(f"cs-sweep-k{k}", "sweep", params(k), {"lengths": [2, 4]}),
            Item(f"cs-sigma-k{k}", "sigma", params(k), {"values": [0.05, 0.06]}),
            Item(f"cs-slip-k{k}", "slip", params(k)),
        ]
    return Workload(
        name="cached-serving",
        loop="open",
        server_args=("--replicas", "2", "--result-cache", str(CACHE_CAPACITY)),
        pool=tuple(pool),
        episodes=(),
        warmup=tuple(it for it in pool if it.kind == "analyze" and "sigma" not in it.name),
        kernel_item="cs-analyze-k8",
        latency_limit_ms=1000.0,
        result_cache=CACHE_CAPACITY,
        # the first rate is held for LATENCY_SHARE of the run, far below the
        # knee, where latency shows service rather than queueing; the rest
        # climb from just below the knee (44-68 requests/s on 2 cores when
        # defined, as the machine's speed drifts) to past it, so the highest
        # rate that meets the limit depends on the server
        rates=(10.0,) + tuple(float(r) for r in range(40, 69, 4)),
    )


WORKLOADS = {w.name: w for w in (_paper_study(), _matrix_free(), _cached_serving())}

# Small requests that reach every replayed layer, replayed after a traced
# workload behind a 2-entry result cache: a layer the workload never reaches
# takes its per-layer value from here instead of reading 0. In order: a
# cold analyze, its result-cache hit, a p01/p10 change (Model.rebuild), a
# slip (first passage), a sweep, a Kronecker analyze and a composed env.
_G16 = {"grid": 16, "loop": {"counter": 2}}
LAYER_PROBE = (
    analyze("probe-analyze", _G16),
    analyze("probe-analyze", _G16),
    analyze("probe-analyze-p01p10", dict(_G16, p01=0.3, p10=0.3)),
    Item("probe-slip", "slip", _G16),
    Item("probe-sweep", "sweep", _G16, {"lengths": [2]}),
    analyze("probe-kron", {"grid": 32, "loop": {"counter": 2}, "backend": "kron"}),
    Item("probe-env", "env", dict(_G16, backend="kron", env="bursty")),
)
PROBE_CACHE = 2


def item(workload, name):
    return next(it for it in workload.pool if it.name == name)


def warmup_lines(workload, setup):
    return [(it, it.request(f"s{setup}-w{i}")) for i, it in enumerate(workload.warmup)]


def memo_family(it):
    """The engine memo a request goes through: CSR analyze and slip share the
    last model, Kronecker analyze the last Kronecker model, env the last
    composed model; sweeps build their own."""
    if it.kind == "env":
        return "env"
    if it.kind in ("analyze", "slip"):
        return it.params.get("backend", "csr")
    return None


def rounds_for(workload, seconds):
    return max(1, int(seconds // ROUND_S))


def closed_rounds(workload, seed):
    """Endless rounds, each the whole pool as a seeded permutation of its
    episodes. Within every memo family, a round never starts with the
    episode the previous round ended with, so an episode's first request
    always follows a request of another episode through the same memo."""
    rng = random.Random(seed)
    family = {ep: memo_family(item(workload, ep[0])) for ep in workload.episodes}
    shared = {f for f in family.values() if f and sum(g == f for g in family.values()) > 1}
    last = {}
    n = 0
    while True:
        while True:
            order = list(workload.episodes)
            rng.shuffle(order)
            firsts = {}
            for ep in order:
                firsts.setdefault(family[ep], ep)
            if all(firsts[f] != last.get(f) for f in shared):
                break
        for ep in order:
            last[family[ep]] = ep
        batch = []
        for name in (name for episode in order for name in episode):
            it = item(workload, name)
            batch.append((it, it.request(f"r{n}")))
            n += 1
        yield batch


def zipf_weights(workload):
    """Popularity by rank over a fixed ranking of the pool (seed-independent,
    so every seed sees the same popularity law)."""
    ranked = list(workload.pool)
    random.Random(0).shuffle(ranked)
    rank = {it.name: r + 1 for r, it in enumerate(ranked)}
    return [1.0 / rank[it.name] ** ZIPF_S for it in workload.pool]


def zipf_deck(workload, n, every_item=True):
    """n pool items with counts proportional to their Zipf weights, by
    largest remainder rounding: a fixed mix. With every_item each item comes
    at least once; without, only items whose share is a whole request or
    more come, and only they take the remainders."""
    weights = zipf_weights(workload)
    total = sum(weights)
    exact = [max(1.0, n * w / total) if every_item else n * w / total for w in weights]
    counts = [int(x) for x in exact]
    by_remainder = sorted((i for i in range(len(exact)) if counts[i]), key=lambda i: counts[i] - exact[i])
    for i in by_remainder[: max(0, n - sum(counts))]:
        counts[i] += 1
    while sum(counts) > n:  # the at-least-once floor overshot
        counts[counts.index(max(counts))] -= 1
    return [it for it, c in zip(workload.pool, counts) for _ in range(c)]


def dealt_evenly(deck, rng):
    """The deck in an order that spaces each item's copies evenly and
    interleaves the items that have the same count at even phases, so every
    stretch of it holds about its share of every item (and of the rare
    ones, which miss the result cache). The rng picks the phases and which
    item takes which."""
    copies = {}
    for it in deck:
        copies.setdefault(it.name, []).append(it)
    names = sorted(copies)
    rng.shuffle(names)
    groups = {}
    for name in names:
        groups.setdefault(len(copies[name]), []).append(name)
    keyed = []
    for count, group in groups.items():
        u = rng.random()
        for k, name in enumerate(group):
            phase = (u + k / len(group)) % 1.0
            keyed += [((j + phase) / count, name, it) for j, it in enumerate(copies[name])]
    keyed.sort(key=lambda x: x[:2])
    return [it for *_, it in keyed]


def open_schedule(workload, seed, seconds):
    """[(offset_s, rate, item, line)]. An untimed lead-in (rate None) sends
    the result-cache capacity's worth of the most popular items once over
    LEAD_IN_S, so that timing starts on a filled cache rather than on a
    burst of first-time misses. The first rate is held until LATENCY_SHARE
    of the run and the others share the rest, each with evenly spaced sends.
    The items of each part are a Zipf-proportioned deck of the pool dealt
    evenly by the seed, so every seed sends the same mix in each part, and
    about the same mix at every rate, in another order. The second part
    sends every item at least once; the first leaves out the items whose
    share of it is below one request, so that its latency comes from the
    same requests under every seed."""
    weights = dict(zip((it.name for it in workload.pool), zipf_weights(workload)))
    popular = sorted(workload.pool, key=lambda it: -weights[it.name])[: workload.result_cache]
    random.Random(seed).shuffle(popular)
    lead_in = [(k * LEAD_IN_S / len(popular), None, it) for k, it in enumerate(popular)]
    split = seconds * LATENCY_SHARE
    share = (seconds - split) / (len(workload.rates) - 1)
    phases = [(LEAD_IN_S, split - LEAD_IN_S, workload.rates[0])] + [
        (split + i * share, share, rate) for i, rate in enumerate(workload.rates[1:])
    ]
    rng = random.Random(seed)
    sends = lead_in
    for part, every_item in ((phases[:1], False), (phases[1:], True)):
        slots = [
            (start + k / rate, rate)
            for start, length, rate in part
            for k in range(max(1, int(round(rate * length))))
        ]
        deck = dealt_evenly(zipf_deck(workload, len(slots), every_item), rng)
        sends += [(t, rate, it) for (t, rate), it in zip(slots, deck)]
    return [(t, rate, it, it.request(f"r{n}")) for n, (t, rate, it) in enumerate(sends)]
