#!/usr/bin/env python3
"""Summarize bench_output.txt into the compact per-figure tables used in
EXPERIMENTS.md. Pure-stdlib; reads the google-benchmark console format.

Also ingests BENCH_quiesce.json ("tle-quiesce/v1", emitted by
bench/quiesce_scale — see summarize_quiesce below) and BENCH_tm_ops.json
(emitted by bench/abl_overhead, schema "tle-tm-ops/v1" — authoritative
documentation in bench/bench_support.hpp):

    {"schema": "tle-tm-ops/v1",
     "secs_per_cell": <double>,
     "results": [{"workload": ..., "mode": ..., "threads": ...,
                  "txns": ..., "ops_per_sec": ..., "accesses_per_sec": ...,
                  "abort_pct": ..., "serial_pct": ...,
                  "quiesce_waits": ..., "quiesce_spins": ...,
                  "htm_read_dedup": ..., "htm_rw_hits": ...}, ...]}

The JSON file is looked for next to the benchmark output (same directory),
or passed explicitly as a second argument."""
import json
import os
import re
import sys
from collections import defaultdict


def parse(path):
    rows = []
    pat = re.compile(r"^(\S+)\s+(\d+(?:\.\d+)?) ms\s+(\d+(?:\.\d+)?) ms\s+\d+(.*)$")
    for line in open(path):
        m = pat.match(line.strip())
        if not m:
            continue
        name, real, _cpu, rest = m.groups()
        counters = {}
        for key, val in re.findall(r"(\w+)=([-\d.kMGu]+)", rest):
            mult = 1.0
            if val.endswith("k"):
                mult, val = 1e3, val[:-1]
            elif val.endswith("M"):
                mult, val = 1e6, val[:-1]
            elif val.endswith("G"):
                mult, val = 1e9, val[:-1]
            elif val.endswith("u"):
                mult, val = 1e-6, val[:-1]
            try:
                counters[key] = float(val) * mult
            except ValueError:
                pass
        rows.append((name, float(real), counters))
    return rows


def fig(rows, prefix):
    return [r for r in rows if r[0].startswith(prefix)]


def summarize_tm_ops(path):
    """Per-access overhead table from BENCH_tm_ops.json ("tle-tm-ops/v1")."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        print(f"  (cannot read {path}: {e})")
        return
    if doc.get("schema") != "tle-tm-ops/v1":
        print(f"  (unexpected schema {doc.get('schema')!r} in {path})")
        return
    print(f"== tm-ops: per-access overhead ({doc.get('secs_per_cell', 0)}s/cell) ==")
    by_wl = defaultdict(list)
    for r in doc.get("results", []):
        by_wl[r.get("workload", "?")].append(r)
    routed = immediate = 0
    for wl, cells in by_wl.items():
        parts = []
        for c in cells:
            dedup = c.get("htm_read_dedup", 0) + c.get("htm_rw_hits", 0)
            tag = f"{c.get('mode', '?')}={c.get('ops_per_sec', 0):.3g}"
            if dedup:
                tag += "*"  # dedup/index hits recorded for this cell
            parts.append(tag)
            routed += (c.get("htm_routed_frees", 0)
                       + c.get("priv_limbo_routed", 0))
            immediate += c.get("priv_immediate_frees", 0)
        print(f"  {wl:16s} ops/s: " + "  ".join(parts))
    if routed or immediate:
        print(f"  routed frees: {routed} via limbo (HTM readers in flight), "
              f"{immediate} immediate")


def summarize_quiesce(path):
    """Quiescence-scaling table from BENCH_quiesce.json ("tle-quiesce/v1",
    emitted by bench/quiesce_scale): writer-commit throughput per
    {policy, frees, threads} cell plus grace/limbo accounting."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        print(f"  (cannot read {path}: {e})")
        return
    if doc.get("schema") != "tle-quiesce/v1":
        print(f"  (unexpected schema {doc.get('schema')!r} in {path})")
        return
    print(f"== quiesce-scale: writer commits/s "
          f"({doc.get('secs_per_cell', 0)}s/cell) ==")
    by_cfg = defaultdict(list)
    for c in doc.get("results", []):
        by_cfg[(c.get("policy", "?"), c.get("frees", "?"))].append(c)
    for (policy, frees), cells in sorted(by_cfg.items()):
        cells.sort(key=lambda c: c.get("threads", 0))
        parts = [f"{c.get('threads', 0)}T={c.get('commits_per_sec', 0):.3g}"
                 for c in cells]
        shared = sum(c.get("grace_shared", 0) for c in cells)
        limbo = sum(c.get("limbo_enqueued", 0) for c in cells)
        tag = f"  {policy:10s} frees={frees:5s} " + "  ".join(parts)
        if shared or limbo:
            tag += f"   (grace_shared={shared:.0f} limbo_enq={limbo:.0f})"
        print(tag)


def summarize_governor(path):
    """Contention-governor A/B table from BENCH_governor.json
    ("tle-governor/v1", emitted by bench/abl_htm_retry): the retry-budget
    sweep plus the lemming-effect cells (governor on/off) and the
    acceptance ratios. `elided_commits_per_sec` counts only speculative
    (lock-elided) commits — the rate a serialization convoy destroys."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        print(f"  (cannot read {path}: {e})")
        return
    if doc.get("schema") != "tle-governor/v1":
        print(f"  (unexpected schema {doc.get('schema')!r} in {path})")
        return
    print(f"== governor: lemming-effect A/B "
          f"({doc.get('secs_per_cell', 0)}s/cell) ==")
    sweep = doc.get("sweep", [])
    if sweep:
        print("  retry sweep (ops/s by retries x threads):")
        by_r = defaultdict(list)
        for c in sweep:
            by_r[c.get("retries", 0)].append(c)
        for r, cells in sorted(by_r.items()):
            cells.sort(key=lambda c: c.get("threads", 0))
            parts = [f"{c.get('threads', 0)}T={c.get('ops_per_sec', 0):.3g}"
                     for c in cells]
            print(f"    retries={r:<3d} " + "  ".join(parts))
    for c in doc.get("lemming", []):
        print(f"  governor={c.get('governor', '?'):3s} "
              f"elided/s={c.get('elided_commits_per_sec', 0):.3g} "
              f"total/s={c.get('total_txns_per_sec', 0):.3g} "
              f"fallbacks={c.get('serial_fallbacks', 0)} "
              f"convoy={c.get('convoy_depth', 0):.1f} "
              f"drains={c.get('gov_drain_waits', 0)} "
              f"watchdog={c.get('gov_watchdog_escalations', 0)}")
    acc = doc.get("acceptance", {})
    if acc:
        # A ratio is null when its base, the cause-blind arm, read 0.
        def ratio(key):
            v = acc.get(key)
            return "undefined" if v is None else f"{v:.2f}x"
        print(f"  acceptance @ {acc.get('threads', '?')}T: "
              f"elided ratio {ratio('commits_ratio')} "
              f"(>= 2.0), total ratio {ratio('total_ratio')}, "
              f"fallback drop {100 * acc.get('fallback_drop', 0):.1f}% "
              f"(>= 50%)")


def summarize_commit_scale(path):
    """Commit-striping A/B table from BENCH_commit_scale.json
    ("tle-commit-scale/v1", emitted by bench/abl_commit_scale): elided
    commits/s per {workload, stripes, threads} cell plus the striped vs
    single-sequence acceptance ratio at the widest disjoint cell."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        print(f"  (cannot read {path}: {e})")
        return
    if doc.get("schema") != "tle-commit-scale/v1":
        print(f"  (unexpected schema {doc.get('schema')!r} in {path})")
        return
    print(f"== commit-scale: striped vs single commit sequence "
          f"({doc.get('secs_per_cell', 0)}s/cell) ==")
    by_cfg = defaultdict(list)
    for c in doc.get("cells", []):
        by_cfg[(c.get("workload", "?"), c.get("stripes", 0))].append(c)
    for (workload, stripes), cells in sorted(by_cfg.items()):
        cells.sort(key=lambda c: c.get("threads", 0))
        parts = [f"{c.get('threads', 0)}T="
                 f"{c.get('elided_commits_per_sec', 0):.3g}"
                 for c in cells]
        falserev = sum(c.get("stripe_false_revalidations", 0) for c in cells)
        busy = sum(c.get("aborts_stripe_busy", 0) for c in cells)
        tag = f"  {workload:9s} stripes={stripes:<3d} " + "  ".join(parts)
        if falserev or busy:
            tag += f"   (false_reval={falserev:.0f} stripe_busy={busy:.0f})"
        print(tag)
    acc = doc.get("acceptance", {})
    if acc.get("commits_ratio") is not None:
        print(f"  acceptance @ {acc.get('threads', '?')}T "
              f"{acc.get('workload', '?')}: striped/single elided ratio "
              f"{acc.get('commits_ratio', 0):.2f}x (>= 3.0 full run)")


def summarize_obs(path):
    """Per-site profile table from a tle-obs/v1 document (emitted via
    TLE_STATS_DUMP=FILE by any binary linking the TM runtime, or by
    tle::obs::obs_json()). Shows the Figure-4 view: per named TLE_TX_SITE,
    attempts / commits / aborts-by-cause / serial fraction, plus p50/p99
    attempt latency derived from the log2 histograms."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        print(f"  (cannot read {path}: {e})")
        return
    if doc.get("schema") != "tle-obs/v1":
        print(f"  (unexpected schema {doc.get('schema')!r} in {path})")
        return

    def pctl(hist, p):
        # Midpoint rule, mirroring obs::percentile_from_buckets: bucket 0
        # holds [0, 2) and reports 1; bucket floor 2^b reports 2^b + 2^(b-1).
        total = sum(c for _, c in hist)
        if not total:
            return 0.0
        want = p * total
        seen = 0
        for floor, count in hist:
            seen += count
            if seen >= want:
                return 1 if floor == 0 else floor + floor // 2
        floor = hist[-1][0]
        return 1 if floor == 0 else floor + floor // 2

    stats = doc.get("stats", {})
    print(f"== obs: {doc.get('mode', '?')} — "
          f"{stats.get('commits', 0)} commits, "
          f"{stats.get('aborts_total', 0)} aborts, "
          f"{stats.get('serial_commits', 0)} serial ==")
    sites = sorted(doc.get("sites", []),
                   key=lambda s: (-s.get("aborts_total", 0),
                                  -s.get("attempts", 0)))
    print(f"  {'site':28s} {'attempts':>9s} {'commits':>9s} {'aborts':>7s} "
          f"{'abrt%':>6s} {'serial':>7s} {'p50us':>8s} {'p99us':>8s}")
    for s in sites:
        att = s.get("attempts", 0)
        ab = s.get("aborts_total", 0)
        serial = s.get("serial_fallbacks", 0) + s.get("serial_commits", 0)
        hist = s.get("attempt_ns_hist", [])
        print(f"  {s.get('name', '?'):28s} {att:9d} {s.get('commits', 0):9d} "
              f"{ab:7d} {100.0 * ab / att if att else 0.0:6.2f} {serial:7d} "
              f"{pctl(hist, 0.50) / 1e3:8.1f} {pctl(hist, 0.99) / 1e3:8.1f}")
        causes = {k: v for k, v in s.get("aborts", {}).items() if v}
        if causes:
            print("    " + "  ".join(f"{k}={v}"
                                     for k, v in sorted(causes.items())))


def summarize_metrics(path):
    """Interval-telemetry rollup from a tle-metrics/v1 stream
    (TLE_METRICS_OUT=FILE — one JSON record per window, JSONL). Shows the
    windowed view the background sampler captured: per-window commit/abort
    rates, gauge peaks, and a per-site total with a conservation check
    (summed window deltas vs the last cumulative total_commits)."""
    windows = []
    try:
        with open(path) as f:
            for line in f:
                line = line.strip()
                if not line:
                    continue
                rec = json.loads(line)
                if rec.get("schema") == "tle-metrics/v1":
                    windows.append(rec)
    except (OSError, ValueError) as e:
        print(f"  (cannot read {path}: {e})")
        return
    if not windows:
        print(f"  (no tle-metrics/v1 records in {path})")
        return
    totals = [w.get("totals", {}) for w in windows]
    commits = sum(t.get("commits", 0) for t in totals)
    aborts = sum(t.get("aborts", 0) for t in totals)
    serial = sum(t.get("serial_commits", 0) for t in totals)
    dur_s = sum(w.get("duration_ns", 0) for w in windows) / 1e9
    rates = [t.get("commit_rate", 0.0) for t in totals
             if t.get("commit_rate")]
    gauges = [w.get("gauges", {}) for w in windows]
    print(f"== metrics: {len(windows)} window(s) over {dur_s:.2f}s — "
          f"{commits} commits, {aborts} aborts, {serial} serial ==")
    if rates:
        print(f"  commit rate: mean={sum(rates) / len(rates):.3g}/s  "
              f"peak={max(rates):.3g}/s")
    print(f"  gauge peaks: inflight={max((g.get('inflight_txns', 0) for g in gauges), default=0)}  "
          f"limbo={max((g.get('limbo_pending', 0) for g in gauges), default=0)}  "
          f"oldest_txn={max((g.get('oldest_txn_age_ns', 0) for g in gauges), default=0) / 1e3:.1f}us  "
          f"serial_hold={sum(g.get('serial_hold_ns', 0) for g in gauges) / 1e6:.2f}ms")
    per_site = {}
    for w in windows:
        for s in w.get("sites", []):
            d = per_site.setdefault(s.get("id"),
                                    {"name": s.get("name", "?"), "commits": 0,
                                     "aborts": 0, "last_total": 0, "p99": 0})
            d["commits"] += s.get("commits", 0)
            d["aborts"] += s.get("aborts_total", 0)
            d["last_total"] = s.get("total_commits", 0)
            d["p99"] = max(d["p99"], s.get("p99_ns", 0))
    for sid, d in sorted(per_site.items(), key=lambda kv: -kv[1]["commits"]):
        conserved = "" if d["commits"] == d["last_total"] else \
            f"  !! deltas {d['commits']} != cumulative {d['last_total']}"
        print(f"  {d['name']:28s} commits={d['commits']:<10d} "
              f"aborts={d['aborts']:<8d} p99={d['p99'] / 1e3:8.1f}us"
              f"{conserved}")


def main():
    path = sys.argv[1] if len(sys.argv) > 1 else "bench_output.txt"

    # Direct mode: a recognized schema JSON (or JSONL stream) as the sole
    # argument. A tle-metrics/v1 stream is JSONL, so sniff its first line
    # when whole-file parsing fails.
    if path.endswith((".json", ".jsonl")):
        schema = None
        try:
            with open(path) as f:
                schema = json.load(f).get("schema")
        except (OSError, ValueError):
            try:
                with open(path) as f:
                    schema = json.loads(f.readline()).get("schema")
            except (OSError, ValueError):
                schema = None
        if schema == "tle-obs/v1":
            summarize_obs(path)
            return
        if schema == "tle-governor/v1":
            summarize_governor(path)
            return
        if schema == "tle-commit-scale/v1":
            summarize_commit_scale(path)
            return
        if schema == "tle-metrics/v1":
            summarize_metrics(path)
            return

    rows = parse(path)

    tm_ops = (sys.argv[2] if len(sys.argv) > 2 else
              os.path.join(os.path.dirname(path) or ".", "BENCH_tm_ops.json"))
    if os.path.exists(tm_ops):
        summarize_tm_ops(tm_ops)

    quiesce = os.path.join(os.path.dirname(path) or ".", "BENCH_quiesce.json")
    if os.path.exists(quiesce):
        summarize_quiesce(quiesce)

    governor = os.path.join(os.path.dirname(path) or ".",
                            "BENCH_governor.json")
    if os.path.exists(governor):
        summarize_governor(governor)

    commit_scale = os.path.join(os.path.dirname(path) or ".",
                                "BENCH_commit_scale.json")
    if os.path.exists(commit_scale):
        summarize_commit_scale(commit_scale)

    obs = os.path.join(os.path.dirname(path) or ".", "BENCH_obs.json")
    if os.path.exists(obs):
        summarize_obs(obs)

    metrics = os.path.join(os.path.dirname(path) or ".",
                           "BENCH_metrics.jsonl")
    if os.path.exists(metrics):
        summarize_metrics(metrics)

    print("== fig2: HTM serial-fallback band (paper: 13-18%) ==")
    vals = [c.get("serial_pct", 0) for n, _, c in fig(rows, "fig2/") if "HTM" in n]
    if vals:
        print(f"  min={min(vals):.1f}%  mean={sum(vals)/len(vals):.1f}%  max={max(vals):.1f}%  (n={len(vals)})")

    print("== fig2: transaction counts by block size (Compress, 4 threads) ==")
    for n, _, c in fig(rows, "fig2/Compress"):
        if "/threads:4/" in n and "STM+CondVar/" in n:
            print(f"  {n.split('/')[2]}: txns={c.get('txns', 0):.0f} abort_pct={c.get('abort_pct', 0):.3f}")

    print("== fig3: speedup_vs_pthread1 range per mode ==")
    by_mode = defaultdict(list)
    for n, _, c in fig(rows, "fig3/"):
        by_mode[n.split("/")[3]].append(c.get("speedup_vs_pthread1", 0))
    for mode, vs in sorted(by_mode.items()):
        print(f"  {mode:24s} min={min(vs):.2f} max={max(vs):.2f}")

    print("== fig4: aborts per 1000 txns vs threads ==")
    for n, _, c in fig(rows, "fig4/"):
        print(f"  {n}: aborts_per_ktxn={c.get('aborts_per_ktxn', 0):.1f} serial_pct={c.get('serial_pct', 0):.1f}")

    print("== fig5: regime throughput geometric means (ops/s) ==")
    geo = defaultdict(lambda: [0.0, 0])
    for n, _, c in fig(rows, "fig5/"):
        if "fig5x" in n:
            continue
        regime = n.split("/")[4].split("/")[0]
        import math
        v = c.get("ops_per_sec", 0)
        if v > 0:
            geo[regime][0] += math.log(v)
            geo[regime][1] += 1
    import math
    for regime, (slog, cnt) in sorted(geo.items()):
        if cnt:
            print(f"  {regime:12s} geomean={math.exp(slog/cnt)/1e6:.2f}M over {cnt} cells")

    print("== fig5: list lookup50 at 8 threads (the paper's congestion-control cell) ==")
    for n, _, c in fig(rows, "fig5/list/lookup50/threads:8"):
        print(f"  {n.split('/')[-2]}: {c.get('ops_per_sec', 0)/1e6:.2f}M ops/s quiesce={c.get('quiesce', 0):.0f} q_waits={c.get('q_waits', 0):.0f} abort_pct={c.get('abort_pct', 0):.4f}")

    print("== ablations ==")
    for p in ["abl_quiesce_cc", "abl_htm_retry", "abl_lock_erasure", "abl_slices"]:
        for n, _, c in fig(rows, p):
            extras = " ".join(
                f"{k}={c[k]:.3g}" for k in
                ("ops_per_sec", "serial_pct", "q_waits", "bits", "psnr_db")
                if k in c and c[k])
            print(f"  {n}: {extras}")


if __name__ == "__main__":
    main()
