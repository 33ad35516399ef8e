#!/usr/bin/env python3
"""Tier-1 smoke check for the interval-telemetry stream (stdlib-only).

Runs a workload binary with the zero-friction env activation
(TLE_METRICS_OUT=<file> TLE_METRICS_PROM=<file> TLE_METRICS_PERIOD_MS=20
TLE_STATS_DUMP=<file>) and validates that:

  * the stream holds >= 3 tle-metrics/v1 records, one JSON object per line,
    with consecutive window indices and abutting [t_start_ns, t_end_ns)
    intervals, ending in exactly one final (residual) flush record;
  * every record carries the totals / gauges / per-site fields of the
    schema, and each reported commit_rate is consistent with its own
    delta / duration to within max(1, 1%);
  * per-site conservation is EXACT: for every site id, the window deltas
    (periodic windows + the final residual) sum to the last record's
    cumulative total_commits, which in turn equals the site's lifetime
    commits in the tle-obs/v1 dump written at exit. (Process-level TxStats
    totals are not compared — workloads may reset_stats() mid-run; the
    per-site counters are never reset, which is what makes the interval
    stream reconcilable.)
  * the Prometheus exposition file exists and exposes the tle_* families.

Usage: check_metrics_json.py <workload-binary> [args...]
       (default args: selftest -s 1 -p 4 -m stm — the pipez_tool smoke)
"""
import json
import os
import subprocess
import sys
import tempfile

TOTALS_FIELDS = ["txn_starts", "commits", "aborts", "serial_commits",
                 "serial_fallbacks", "lock_sections", "limbo_enqueued",
                 "limbo_drained", "htm_routed_frees", "priv_immediate_frees",
                 "priv_limbo_routed"]
GAUGE_FIELDS = ["inflight_txns", "limbo_pending", "storm_active",
                "storm_inflight", "storm_gated", "watchdog_escalations"]
GAUGE_TIME_FIELDS = ["oldest_txn_age_ns", "grace_last_scan_ns",
                     "grace_scan_ns", "serial_hold_ns", "serial_wait_ns",
                     "serial_held_age_ns", "gov_abort_rate"]
SITE_FIELDS = ["id", "name", "attempts", "commits", "serial_fallbacks",
               "serial_commits", "htm_retries", "drain_waits", "storm_gated",
               "watchdog_escalations", "aborts", "aborts_total",
               "total_commits"]
SITE_TIME_FIELDS = ["commit_rate", "abort_ratio", "fallback_ratio",
                    "p50_ns", "p99_ns", "p999_ns"]

failures = []


def check(ok, what):
    if not ok:
        failures.append(what)
        print(f"check_metrics_json: FAIL: {what}", file=sys.stderr)


def load_windows(path):
    windows = []
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except ValueError as e:
                check(False, f"line {lineno} is not valid JSON: {e}")
                continue
            check(rec.get("schema") == "tle-metrics/v1",
                  f"line {lineno}: schema is {rec.get('schema')!r}")
            windows.append(rec)
    return windows


def check_record_shape(rec, label):
    det = rec.get("deterministic", False)
    totals = rec.get("totals")
    check(isinstance(totals, dict), f"{label}: missing 'totals'")
    for fld in TOTALS_FIELDS:
        check(fld in (totals or {}), f"{label}: totals missing {fld!r}")
    gauges = rec.get("gauges")
    check(isinstance(gauges, dict), f"{label}: missing 'gauges'")
    for fld in GAUGE_FIELDS:
        check(fld in (gauges or {}), f"{label}: gauges missing {fld!r}")
    sites = rec.get("sites")
    check(isinstance(sites, list), f"{label}: missing 'sites'")
    starved = rec.get("starved_sites")
    check(isinstance(starved, list), f"{label}: missing 'starved_sites'")
    for s in starved if isinstance(starved, list) else []:
        for fld in ("id", "name", "watchdog_total", "gated_total"):
            check(fld in s, f"{label}: starved_sites entry missing {fld!r}")
    if not det:
        for fld in ("t_start_ns", "t_end_ns", "duration_ns"):
            check(fld in rec, f"{label}: missing {fld!r}")
        check(rec.get("t_end_ns", 0) >= rec.get("t_start_ns", 0),
              f"{label}: t_end_ns < t_start_ns")
        for fld in GAUGE_TIME_FIELDS:
            check(fld in (gauges or {}), f"{label}: gauges missing {fld!r}")
    for s in sites if isinstance(sites, list) else []:
        slabel = f"{label} site {s.get('name', '?')!r}"
        for fld in SITE_FIELDS:
            check(fld in s, f"{slabel}: missing {fld!r}")
        if not det:
            for fld in SITE_TIME_FIELDS:
                check(fld in s, f"{slabel}: missing {fld!r}")
        aborts = s.get("aborts", {})
        check(isinstance(aborts, dict), f"{slabel}: aborts is not an object")
        if isinstance(aborts, dict):
            check(s.get("aborts_total") == sum(aborts.values()),
                  f"{slabel}: aborts_total != sum of causes")


def check_rates(rec, label):
    if rec.get("deterministic", False):
        return
    dur_s = rec.get("duration_ns", 0) / 1e9
    if dur_s <= 0:
        return
    commits = rec.get("totals", {}).get("commits", 0)
    rate = rec.get("totals", {}).get("commit_rate", 0.0)
    tol = max(1.0, 0.01 * commits)
    check(abs(rate * dur_s - commits) <= tol,
          f"{label}: commit_rate {rate} x {dur_s:.4f}s != {commits} commits")
    for s in rec.get("sites", []):
        sc = s.get("commits", 0)
        sr = s.get("commit_rate", 0.0)
        check(abs(sr * dur_s - sc) <= max(1.0, 0.01 * sc),
              f"{label} site {s.get('name', '?')!r}: rate/delta mismatch")


def check_stream(windows):
    check(len(windows) >= 3,
          f"expected >= 3 windows in the stream, got {len(windows)}")
    finals = [w for w in windows if w.get("final")]
    check(len(finals) == 1, f"expected exactly one final flush, "
                            f"got {len(finals)}")
    if windows:
        check(windows[-1].get("final") is True,
              "the final flush must be the last record")
    prev_index, prev_end = None, None
    for i, rec in enumerate(windows):
        label = f"window[{i}]"
        check_record_shape(rec, label)
        check_rates(rec, label)
        idx = rec.get("window")
        check(isinstance(idx, int), f"{label}: missing integer 'window'")
        if prev_index is not None:
            check(idx == prev_index + 1,
                  f"{label}: index {idx} not consecutive after {prev_index}")
        prev_index = idx
        if not rec.get("deterministic", False):
            if prev_end is not None:
                check(rec.get("t_start_ns") == prev_end,
                      f"{label}: t_start_ns != previous t_end_ns "
                      "(intervals must abut)")
            prev_end = rec.get("t_end_ns")


def site_conservation(windows, obs_doc):
    """sum(window deltas) == last cumulative total_commits == lifetime dump."""
    delta_sum, last_total, names = {}, {}, {}
    for rec in windows:
        for s in rec.get("sites", []):
            sid = s.get("id")
            delta_sum[sid] = delta_sum.get(sid, 0) + s.get("commits", 0)
            last_total[sid] = s.get("total_commits", 0)
            names[sid] = s.get("name", "?")
    check(len(delta_sum) > 0, "no per-site activity in any window")
    for sid, total in last_total.items():
        check(delta_sum[sid] == total,
              f"site {names[sid]!r}: window deltas sum to {delta_sum[sid]} "
              f"but the last cumulative total_commits is {total}")
    if obs_doc is None:
        return
    lifetime = {s.get("id"): s.get("commits", 0)
                for s in obs_doc.get("sites", [])}
    for sid, total in last_total.items():
        check(sid in lifetime,
              f"site {names[sid]!r} (id {sid}) missing from the obs dump")
        if sid in lifetime:
            check(lifetime[sid] == total,
                  f"site {names[sid]!r}: stream total {total} != lifetime "
                  f"dump {lifetime[sid]}")


def check_prom(path):
    with open(path) as f:
        text = f.read()
    for family in ("tle_txn_starts_total", "tle_commits_total",
                   "tle_aborts_total", "tle_site_commits_total",
                   "tle_inflight_txns", "tle_limbo_pending"):
        check(family in text, f"prometheus exposition missing {family}")
    check("# TYPE tle_commits_total counter" in text,
          "prometheus exposition missing TYPE metadata")


def main():
    if len(sys.argv) < 2:
        print("usage: check_metrics_json.py <workload-binary> [args...]",
              file=sys.stderr)
        return 2
    binary = sys.argv[1]
    args = sys.argv[2:] or ["selftest", "-s", "1", "-p", "4", "-m", "stm"]

    with tempfile.TemporaryDirectory(prefix="tle_metrics_") as tmp:
        metrics_path = os.path.join(tmp, "metrics.jsonl")
        prom_path = os.path.join(tmp, "metrics.prom")
        obs_path = os.path.join(tmp, "obs.json")
        env = dict(os.environ,
                   TLE_METRICS_OUT=metrics_path,
                   TLE_METRICS_PROM=prom_path,
                   TLE_METRICS_PERIOD_MS="20",
                   TLE_STATS_DUMP=obs_path)
        proc = subprocess.run([binary] + args, env=env,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, timeout=300)
        check(proc.returncode == 0,
              f"workload exited {proc.returncode}: "
              f"{proc.stderr.decode(errors='replace')[-500:]}")
        check(os.path.exists(metrics_path), f"{metrics_path} was not written")
        check(os.path.exists(prom_path), f"{prom_path} was not written")

        windows, obs_doc = [], None
        if os.path.exists(metrics_path):
            windows = load_windows(metrics_path)
            check_stream(windows)
        if os.path.exists(obs_path):
            with open(obs_path) as f:
                obs_doc = json.load(f)
        else:
            check(False, f"{obs_path} was not written")
        if windows:
            site_conservation(windows, obs_doc)
        if os.path.exists(prom_path):
            check_prom(prom_path)

        if windows:
            commits = sum(w.get("totals", {}).get("commits", 0)
                          for w in windows)
            print(f"check_metrics_json: stream OK — {len(windows)} "
                  f"window(s), {commits} commits across "
                  f"{len({s.get('id') for w in windows for s in w.get('sites', [])})} site(s)")

    if failures:
        print(f"check_metrics_json: {len(failures)} failure(s)",
              file=sys.stderr)
        return 1
    print("check_metrics_json: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
