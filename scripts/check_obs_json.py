#!/usr/bin/env python3
"""Tier-1 smoke check for the observability exports (stdlib-only).

Runs a workload binary with the zero-friction env activation
(TLE_STATS_DUMP=<file> TLE_TRACE=1 TLE_TRACE_OUT=<file>) and validates that:

  * the tle-obs/v1 JSON parses, carries every TLE_COUNTERS counter by name,
    a per-cause abort breakdown keyed by the AbortCause names, and
    well-formed per-site profiles with log2 histograms;
  * the counters are conserved: every site's attempts equal its commits
    plus aborts, and the sites' attempts, commits, serial commits and
    per-cause aborts sum to the process-wide totals;
  * the Chrome-trace JSON parses and contains thread-name metadata plus at
    least one complete ("X") slice, i.e. Perfetto/chrome://tracing will
    render a non-empty timeline.

Usage: check_obs_json.py <workload-binary> [args...]
       (default args: selftest -s 1 -p 4 -m stm — the pipez_tool smoke)
"""
import json
import os
import subprocess
import sys
import tempfile

# Counters of TLE_COUNTERS in src/tm/stats.hpp. The obs_test unit suite
# proves obs_json() covers the table; this list pins the external schema so
# a renamed counter is caught as the compatibility break it is (a new counter
# needs no entry here).
REQUIRED_COUNTERS = [
    "txn_starts", "commits", "commits_readonly", "serial_fallbacks",
    "serial_commits", "lock_sections", "quiesce_calls", "quiesce_waits",
    "quiesce_spins", "quiesce_wait_ns", "grace_scans", "grace_shared",
    "parked_waits", "limbo_enqueued", "limbo_drained", "limbo_forced_flush",
    "noquiesce_requests", "noquiesce_honored", "noquiesce_ignored_nested",
    "noquiesce_ignored_free", "htm_routed_frees",
    "priv_immediate_frees", "priv_limbo_routed",
    "tm_allocs", "tm_frees", "deferred_run",
    "condvar_waits", "condvar_timeouts", "htm_retries", "stm_read_dedup",
    "htm_read_dedup", "htm_rw_hits", "stripe_bumps",
    "stripe_false_revalidations",
    "tictoc_extensions", "tictoc_extension_fails", "tictoc_wts_waits",
    "tictoc_lock_timeouts",
    "faults_injected", "fault_delays",
    "fault_forced_serial", "fault_forced_flush", "gov_serial_immediate",
    "gov_backoffs", "gov_immediate_retries", "gov_drain_waits",
    "gov_drain_timeouts", "gov_storm_gated", "gov_watchdog_escalations",
    "gov_stall_events",
    "obs_site_overflow",
]

ABORT_CAUSES = ["conflict", "validation", "capacity", "unsafe",
                "serial-pending", "user-explicit", "spurious", "stripe-busy"]

SITE_FIELDS = ["id", "name", "file", "line", "attempts", "commits",
               "serial_fallbacks", "serial_commits", "lock_sections",
               "htm_retries", "quiesce_waits", "drain_waits", "storm_gated",
               "watchdog_escalations", "stripe_bumps",
               "stripe_false_revalidations",
               "tictoc_extensions", "tictoc_extension_fails",
               "tictoc_wts_waits", "tictoc_lock_timeouts",
               "htm_routed_frees", "priv_limbo_routed", "audit_hazard_arms",
               "aborts", "aborts_total",
               "attempt_ns_hist", "quiesce_ns_hist"]

failures = []


def check(ok, what):
    if not ok:
        failures.append(what)
        print(f"check_obs_json: FAIL: {what}", file=sys.stderr)


def check_hist(hist, where):
    check(isinstance(hist, list), f"{where}: histogram is not a list")
    for pair in hist if isinstance(hist, list) else []:
        check(isinstance(pair, list) and len(pair) == 2,
              f"{where}: histogram entry {pair!r} is not [floor_ns, count]")
        if isinstance(pair, list) and len(pair) == 2:
            floor, count = pair
            check(isinstance(floor, int) and floor >= 0,
                  f"{where}: bad bucket floor {floor!r}")
            check(isinstance(count, int) and count > 0,
                  f"{where}: empty buckets must be omitted, got {pair!r}")


def check_conservation(stats, sites):
    """count() bumps a site row together with the thread row, so every
    attempt ends as one commit or abort and the sites sum to the totals."""
    for s in sites:
        check(s.get("attempts") == s.get("commits", 0)
              + s.get("aborts_total", 0),
              f"site {s.get('name', '?')!r}: attempts {s.get('attempts')} != "
              f"commits {s.get('commits')} + aborts {s.get('aborts_total')}")
    pairs = [("attempts", "txn_starts"), ("commits", "commits"),
             ("serial_commits", "serial_commits")]
    for site_key, stats_key in pairs:
        total = sum(s.get(site_key, 0) for s in sites)
        check(total == stats.get(stats_key),
              f"sites' {site_key} sum to {total}, stats.{stats_key} is "
              f"{stats.get(stats_key)}")
    aborts = stats.get("aborts", {})
    for cause in ABORT_CAUSES:
        total = sum(s.get("aborts", {}).get(cause, 0) for s in sites)
        check(total == aborts.get(cause),
              f"sites' {cause} aborts sum to {total}, stats.aborts has "
              f"{aborts.get(cause)}")


def check_obs(path):
    with open(path) as f:
        doc = json.load(f)
    check(doc.get("schema") == "tle-obs/v1",
          f"schema is {doc.get('schema')!r}, want tle-obs/v1")
    check("mode" in doc, "missing top-level 'mode'")

    stats = doc.get("stats")
    check(isinstance(stats, dict), "missing 'stats' object")
    stats = stats or {}
    for name in REQUIRED_COUNTERS:
        check(name in stats, f"stats missing counter {name!r}")
    aborts = stats.get("aborts", {})
    check(isinstance(aborts, dict), "stats.aborts is not an object")
    for cause in ABORT_CAUSES:
        check(cause in aborts, f"stats.aborts missing cause {cause!r}")
    if isinstance(aborts, dict) and all(c in aborts for c in ABORT_CAUSES):
        check(stats.get("aborts_total") == sum(aborts.values()),
              "aborts_total != sum of per-cause aborts")
    check(stats.get("txn_starts", 0) + stats.get("serial_commits", 0)
          + stats.get("lock_sections", 0) > 0,
          "workload ran no transactions at all")

    sites = doc.get("sites")
    check(isinstance(sites, list) and len(sites) > 0,
          "no per-site profiles recorded")
    for s in sites if isinstance(sites, list) else []:
        label = f"site {s.get('name', '?')!r}"
        for field in SITE_FIELDS:
            check(field in s, f"{label} missing field {field!r}")
        check_hist(s.get("attempt_ns_hist", []), f"{label} attempt_ns_hist")
        check_hist(s.get("quiesce_ns_hist", []), f"{label} quiesce_ns_hist")
        site_aborts = s.get("aborts", {})
        check(isinstance(site_aborts, dict)
              and set(site_aborts) <= set(ABORT_CAUSES),
              f"{label} has unknown abort-cause keys: {site_aborts!r}")
    check_conservation(stats, sites if isinstance(sites, list) else [])
    names = [s.get("name", "") for s in sites if isinstance(sites, list)]
    check(any(n.startswith("pipez/") for n in names) or len(names) > 1,
          f"expected named TLE_TX_SITE profiles, got {names!r}")
    print(f"check_obs_json: obs OK — {len(sites or [])} site(s), "
          f"{stats.get('commits', 0)} commits, "
          f"{stats.get('aborts_total', 0)} aborts")


def check_trace(path):
    with open(path) as f:
        doc = json.load(f)
    events = doc.get("traceEvents")
    check(isinstance(events, list) and len(events) > 0,
          "traceEvents missing or empty")
    events = events if isinstance(events, list) else []
    slices = [e for e in events if e.get("ph") == "X"]
    meta = [e for e in events if e.get("ph") == "M"]
    check(len(slices) > 0, "no complete ('X') slices in the trace")
    check(len(meta) > 0, "no thread_name metadata events")
    for e in slices[:200]:
        check(all(k in e for k in ("name", "ts", "dur", "pid", "tid")),
              f"slice missing required keys: {e!r}")
    print(f"check_obs_json: trace OK — {len(slices)} slices over "
          f"{len({e.get('tid') for e in slices})} thread track(s)")


def main():
    if len(sys.argv) < 2:
        print("usage: check_obs_json.py <workload-binary> [args...]",
              file=sys.stderr)
        return 2
    binary = sys.argv[1]
    args = sys.argv[2:] or ["selftest", "-s", "1", "-p", "4", "-m", "stm"]

    with tempfile.TemporaryDirectory(prefix="tle_obs_") as tmp:
        obs_path = os.path.join(tmp, "obs.json")
        trace_path = os.path.join(tmp, "trace.json")
        env = dict(os.environ,
                   TLE_STATS_DUMP=obs_path,
                   TLE_TRACE="1",
                   TLE_TRACE_OUT=trace_path)
        proc = subprocess.run([binary] + args, env=env,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, timeout=300)
        check(proc.returncode == 0,
              f"workload exited {proc.returncode}: "
              f"{proc.stderr.decode(errors='replace')[-500:]}")
        check(os.path.exists(obs_path), f"{obs_path} was not written")
        check(os.path.exists(trace_path), f"{trace_path} was not written")
        if os.path.exists(obs_path):
            check_obs(obs_path)
        if os.path.exists(trace_path):
            check_trace(trace_path)

    if failures:
        print(f"check_obs_json: {len(failures)} failure(s)", file=sys.stderr)
        return 1
    print("check_obs_json: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
