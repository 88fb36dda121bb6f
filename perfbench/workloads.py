"""The four workloads and the traced run.

Each workload function takes a Context and returns a Result.  A workload sets
itself up SETUP_REPS times (generate inputs, bring the program to its start)
and reports the median set-up time, then measures its operations in whole
rounds for ctx.seconds, then checks every output it kept.
"""

import glob
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import time
from dataclasses import dataclass, field

from client import (BUSY_POLL, CLIENT_CPUS, STATUS_EXACT, Client, Daemon, Timed, pin, run_timed,
                    spawn, wait_child)

SETUP_REPS = 5
HOSTS_1M = 1_000_000
HOSTS_100K = 100_000
REQUESTS = 50_000          # serve requests generated (the load cycles through them)
QUERIES = 500_000          # batch query lines
EDITS = 40                 # edits generated; a run applies them in order while time lasts

LADDER = [1000, 2000, 5000, 10000, 20000]  # offered requests/s, in this order
REFERENCE_RATE = 10000
LATENCY_LIMIT_US = 1000.0  # serve p99 limit for serve_max_rps
BACKGROUND_RATE = 500      # update-100k's query stream, requests/s
WATCH_INTERVAL_MS = 20     # update-100k's routedbd --watch-interval
MARKER_TIMEOUT_S = 10.0
TRACE_EDITS = 2


@dataclass
class Context:
    bins: dict            # tool name -> path
    work: str             # this run's scratch directory (inside the checkout)
    seed: int
    seconds: int
    variant: str = ""


@dataclass
class Result:
    metrics: dict = field(default_factory=dict)   # end-to-end or per-layer values
    report: list = field(default_factory=list)    # human-readable lines
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)  # failed checks

    def check(self, ok, what):
        if not ok:
            self.problems.append(what)


def sha256_of(path):
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def first_line(path):
    with open(path) as f:
        return f.readline().strip()


def run_checked(cmd, result, what, **kwargs):
    proc = subprocess.run(cmd, capture_output=True, text=True, **kwargs)
    result.check(proc.returncode == 0, f"{what}: exit {proc.returncode}: "
                 f"{(proc.stdout + proc.stderr).strip()[-400:]}")
    return proc


def generate(ctx, out, hosts, requests=0, queries=0, edits=0):
    subprocess.run([ctx.bins["perfbench_tool"], "gen", "--hosts", str(hosts), "--seed",
                    str(ctx.seed), "--dir", out, "--requests", str(requests),
                    "--queries", str(queries), "--edits", str(edits)], check=True)
    return sorted(glob.glob(os.path.join(out, "maps", "*.map")))


def build_routes(ctx, d, maps, extra=(), name="routes"):
    """pathalias -c then routedb freeze into d/<name>.txt and d/<name>.pari;
    returns (ok, wall s, peak RSS MiB)."""
    local = first_line(os.path.join(d, "local.txt"))
    record = os.path.join(d, "launch.out")
    text = os.path.join(d, name + ".txt")
    with open(os.path.join(d, "pathalias.log"), "w") as log:
        code1, wall1, rss1 = run_timed(
            [ctx.bins["pathalias"], "-c", "-l", local, *extra, "-o", text, *maps], record,
            stderr=log)
    with open(os.path.join(d, "freeze.log"), "w") as log:
        code2, wall2, rss2 = run_timed(
            [ctx.bins["routedb"], "freeze", text, os.path.join(d, name + ".pari")], record,
            stderr=log)
    return code1 == 0 and code2 == 0, wall1 + wall2, max(rss1, rss2)


def remove_files(*paths):
    """Deletes a finished operation's outputs outside any timed region: every
    timed operation writes fresh files, so none waits for the write-back of an
    earlier one's file it would otherwise truncate."""
    for path in paths:
        os.remove(path)


def timed_setups(setup, inputs):
    """Runs setup(last) SETUP_REPS times; returns (median seconds, last return value).

    The previous set-up's `inputs` directory is deleted before the clock starts:
    unlinking files whose pages are still being written back waits for the disk,
    which made the set-up time of build-1m spread 1.1-2.0 s."""
    times = []
    value = None
    for rep in range(SETUP_REPS):
        if os.path.exists(inputs):
            shutil.rmtree(inputs)
        start = time.perf_counter()
        value = setup(rep == SETUP_REPS - 1)
        times.append(time.perf_counter() - start)
    return statistics.median(times), value


# --------------------------------------------------------------------- build-1m

def build_1m(ctx):
    r = Result()
    d = os.path.join(ctx.work, "in")
    hosts = HOSTS_1M
    shard_flags = ["--shards", "4"] if ctx.variant == "shards4" else []

    def setup(_last):
        return generate(ctx, d, hosts)

    setup_s, maps = timed_setups(setup, d)
    local = first_line(os.path.join(d, "local.txt"))
    walls, rss, digests = [], [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < ctx.seconds:
        name = "routes" if not walls else "again"
        ok, wall, peak = build_routes(ctx, d, maps, shard_flags, name)
        r.attempted += 1
        r.failed += 0 if ok else 1
        walls.append(wall)
        rss.append(peak)
        digests.append(sha256_of(os.path.join(d, name + ".txt")))
        if name == "again":
            remove_files(os.path.join(d, "again.txt"), os.path.join(d, "again.pari"))
    image_mib = os.path.getsize(os.path.join(d, "routes.pari")) / 1048576.0
    r.check(len(set(digests)) == 1, "route text differs between builds of one map")
    proc = run_checked([ctx.bins["perfbench_tool"], "check-build", "--routes",
                        os.path.join(d, "routes.txt"), "--hosts", os.path.join(d, "hosts.txt"),
                        "--local", local, "--image", os.path.join(d, "routes.pari")],
                       r, "check-build")
    r.report.append(proc.stdout.strip())
    build_s = statistics.median(walls)
    r.metrics = {"setup_s": setup_s, "op_ms": build_s * 1000.0, "peak_rss_mib": max(rss)}
    r.report += [f"build_s {build_s:.4f} s (median of {len(walls)} builds)",
                 f"build_peak_rss_mib {max(rss):.1f} MiB",
                 f"image_mib {image_mib:.3f} MiB"]
    return r


# ------------------------------------------------------------------ update-100k

def marker_answer_ok(results, marker):
    """The marker's route is its declaring host's route extended by one hop."""
    if results is None or len(results) != 2:
        return False
    (status_m, via_m, route_m), (status_d, _, route_d) = results
    return (status_m == STATUS_EXACT and via_m == marker and status_d == STATUS_EXACT
            and route_m == route_d.replace("%s", marker + "!%s", 1))


def read_edits(d):
    edits = []
    with open(os.path.join(d, "edits.tsv")) as f:
        for line in f:
            edit_id, file_name, kind, marker, declarer = line.rstrip("\n").split("\t")
            edits.append((edit_id, file_name, kind, marker, declarer))
    return edits


def update_100k(ctx):
    r = Result()
    d = os.path.join(ctx.work, "in")
    image = os.path.join(d, "routes.pari")
    sock = os.path.join(ctx.work, "d.sock")
    state = {}

    def setup(last):
        maps = generate(ctx, d, HOSTS_100K, requests=REQUESTS, edits=EDITS)
        local = first_line(os.path.join(d, "local.txt"))
        subprocess.run([ctx.bins["routedb"], "update", "--init", "--local", local, image, *maps],
                       check=True, stderr=subprocess.DEVNULL)
        daemon = Daemon(ctx.bins["routedbd"], image, sock, os.path.join(ctx.work, "routedbd.log"),
                        ["--watch-interval", str(WATCH_INTERVAL_MS)])
        if not last:
            daemon.stop()
            return None
        state["maps"] = maps
        return daemon

    setup_s, daemon = timed_setups(setup, d)
    stop_file = os.path.join(ctx.work, "stop")
    background = None
    client = None
    walls, visible, rss, applied = [], [], [], []
    patched = rebuilt = 0
    try:
        background = spawn(
            [ctx.bins["perfbench_tool"], "load", "--socket", sock, "--requests",
             os.path.join(d, "requests.txt"), "--phases",
             f"{BACKGROUND_RATE}:{(ctx.seconds * 10 + 60) * 1000}", "--until-file", stop_file,
             "--out", os.path.join(ctx.work, "background.json")],
            stdout=subprocess.DEVNULL, preexec_fn=pin(CLIENT_CPUS))
        client = Client(sock, os.path.join(ctx.work, "marker.sock"))
        start = time.perf_counter()
        for edit_id, file_name, _kind, marker, declarer in read_edits(d):
            if applied and time.perf_counter() - start >= ctx.seconds:
                break
            target = os.path.join(d, "maps", file_name)
            shutil.copyfile(os.path.join(d, "edits", edit_id + ".map"), target)
            log_path = os.path.join(ctx.work, f"update-{edit_id}.log")
            r.attempted += 1
            with open(log_path, "w") as log:
                launched = time.perf_counter()
                proc = Timed([ctx.bins["routedb"], "update", "--stats", image, target],
                             os.path.join(ctx.work, "launch.out"), stderr=log)
                seen = None
                code = None
                # Poll the daemon from launch on: the image is published before the
                # update process exits, and the watch may adopt it before then.
                while seen is None and time.perf_counter() - launched < MARKER_TIMEOUT_S:
                    if code is None:
                        done = proc.poll()
                        if done is not None:
                            code = done[0]
                            walls.append(done[1])
                            rss.append(done[2])
                    if marker_answer_ok(client.ask([marker, declarer], timeout=0.2), marker):
                        seen = time.perf_counter() - launched
                    else:
                        time.sleep(0.002)
                if code is None:
                    code, wall, peak = proc.poll(block=True)
                    walls.append(wall)
                    rss.append(peak)
            with open(log_path) as log:
                stats = log.read()
            patched += stats.count("update stats: patched=1")
            rebuilt += stats.count("update stats: patched=0")
            if code != 0 or seen is None:
                r.failed += 1
                r.check(False, f"edit {edit_id}: update exit {code}, marker "
                        f"{'seen' if seen is not None else 'never correct'}")
                continue
            visible.append(seen)
            applied.append((marker, declarer))
    finally:
        open(stop_file, "w").close()
        if background is not None:
            wait_child(background)
        if client is not None:
            client.close()
    with open(os.path.join(ctx.work, "background.json")) as f:
        background_load = json.load(f)
    stream = background_load["phases"][0]
    r.attempted += stream["sent"]
    r.failed += stream["timeouts"] + stream["overloaded"] + stream["broken"]

    # After the last edit: the served routes equal a fresh pathalias run over the
    # edited files, and every marker still answers as its declaring host + 1 hop.
    local = first_line(os.path.join(d, "local.txt"))
    fresh = os.path.join(ctx.work, "fresh.txt")
    run_checked([ctx.bins["pathalias"], "-c", "-l", local, "-o", fresh, *state["maps"]], r,
                "fresh pathalias")
    names_path = os.path.join(ctx.work, "names.txt")
    with open(fresh) as f, open(os.path.join(d, "hosts.txt")) as h:
        names = {line.split("\t")[1] for line in f} | {line.strip() for line in h}
    with open(names_path, "w") as out:
        out.write("\n".join(sorted(names)) + "\n")
    proc = run_checked([ctx.bins["perfbench_tool"], "dump", "--socket", sock, "--names",
                        names_path, "--routes", fresh], r, "served routes vs fresh pathalias")
    r.report.append(proc.stdout.strip())
    client = Client(sock, os.path.join(ctx.work, "marker.sock"))
    try:
        for marker, declarer in applied:
            r.check(marker_answer_ok(client.ask([marker, declarer]), marker),
                    f"marker {marker} is not {declarer}'s route plus one hop")
    finally:
        client.close()
    stats = daemon.stop()
    r.check(daemon.exit_code == 0, f"routedbd exit {daemon.exit_code}")
    r.check(stats.get("reload_errors", 1) == 0, "routedbd reported reload errors")

    update_s = statistics.median(walls)
    r.metrics = {"setup_s": setup_s, "op_ms": update_s * 1000.0, "peak_rss_mib": max(rss)}
    r.report += [
        f"update_s {update_s:.4f} s (median of {len(walls)} edits)",
        f"update_visible_s {statistics.median(visible) if visible else float('nan'):.4f} s",
        f"update_peak_rss_mib {max(rss):.1f} MiB",
        f"update_serve_p99_us {stream['p99_us']:.1f} us ({stream['sent']} requests at "
        f"{BACKGROUND_RATE}/s, p50 {stream['p50_us']:.1f} us, "
        f"{background_load['retransmits']} retransmitted)",
        f"edits patched {patched}, rebuilt {rebuilt}; daemon reloads applied "
        f"{stats.get('reloads_applied')}"]
    return r


# ------------------------------------------------------------------- serve-100k

def serve_phases(seconds):
    """A warm-up at the reference rate, then the ladder with a phase at the
    reference rate before each other rate and one after the last: ten phases of a
    tenth of the run each.  The reference rate's five phases are spread over the
    whole run, so a stretch of a few seconds in which other load on the machine
    delays every round trip spares at least one of them."""
    tenth = seconds * 100
    phases = [(REFERENCE_RATE, tenth)]
    for rate in LADDER:
        if rate != REFERENCE_RATE:
            phases += [(REFERENCE_RATE, tenth), (rate, tenth)]
    return phases + [(REFERENCE_RATE, tenth)]


def by_rate(phases):
    """Each offered rate's figures: the median over its phases of each phase's
    percentiles, and the sums of its counts."""
    groups = {}
    for phase in phases:
        groups.setdefault(phase["rate"], []).append(phase)
    summary = {}
    for rate, group in sorted(groups.items()):
        summary[rate] = {key: statistics.median(p[key] for p in group)
                         for key in ("p50_us", "p99_us", "late_half_p50_us", "lag_p99_us")}
        summary[rate].update(phases=len(group), sent=sum(p["sent"] for p in group),
                             answered=sum(p["answered"] for p in group))
    return summary


def serve_100k(ctx):
    r = Result()
    d = os.path.join(ctx.work, "in")
    sock = os.path.join(ctx.work, "d.sock")
    udp = ctx.variant == "udp"

    def setup(last):
        maps = generate(ctx, d, HOSTS_100K, requests=REQUESTS)
        ok, _, _ = build_routes(ctx, d, maps)
        if not ok:
            raise RuntimeError("pathalias or routedb freeze failed during set-up")
        daemon = Daemon(ctx.bins["routedbd"], os.path.join(d, "routes.pari"), sock,
                        os.path.join(ctx.work, "routedbd.log"), ["--udp", "0"] if udp else [])
        if not last:
            daemon.stop()
            return None
        return daemon

    setup_s, daemon = timed_setups(setup, d)
    out = os.path.join(ctx.work, "load.json")
    target = ["--socket", sock]
    try:
        if udp:
            target = ["--udp", str(daemon.udp_port)]
        phases = ",".join(f"{rate}:{ms}" for rate, ms in serve_phases(ctx.seconds))
        proc = run_checked([ctx.bins["perfbench_tool"], "load", *target, "--requests",
                            os.path.join(d, "requests.txt"), "--routes",
                            os.path.join(d, "routes.txt"), "--phases", phases, "--busy-poll",
                            "1" if BUSY_POLL else "0", "--out", out],
                           r, "load generator", preexec_fn=pin(CLIENT_CPUS))
    finally:
        stats = daemon.stop()
    r.check(daemon.exit_code == 0, f"routedbd exit {daemon.exit_code}")
    with open(out) as f:
        load = json.load(f)
    for phase in load["phases"]:
        r.attempted += phase["sent"]
        r.failed += phase["timeouts"] + phase["overloaded"] + phase["broken"]
        r.check(phase["mismatches"] == 0,
                f"{phase['mismatches']} answers differ from the reference at {phase['rate']}/s")
    max_rps = 0
    rates = by_rate(load["phases"][1:])  # the warm-up counts above, not in the figures
    for rate, fig in rates.items():
        meets = (fig["p99_us"] <= LATENCY_LIMIT_US and fig["answered"] == fig["sent"]
                 and fig["late_half_p50_us"] <= LATENCY_LIMIT_US)
        if meets:
            max_rps = max(max_rps, rate)
        r.report.append(f"rate {rate:.0f}/s: sent {fig['sent']} in {fig['phases']} phase(s), "
                        f"p50 {fig['p50_us']:.1f} us, p99 {fig['p99_us']:.1f} us, generator lag "
                        f"p99 {fig['lag_p99_us']:.1f} us{'' if meets else ' (misses limit)'}")
    ref_p50s = [p["p50_us"] for p in load["phases"][1:] if p["rate"] == REFERENCE_RATE]
    r.report.append("reference-rate phases, p50 us: " + ", ".join(f"{v:.1f}" for v in ref_p50s))
    ref = rates[REFERENCE_RATE]
    # The least-disturbed phase's median: a slower daemon slows every phase, while
    # other load on the machine (which set 3 of 10 runs' p50 ~40% high) rarely
    # covers all five.
    serve_p50 = min(ref_p50s)
    r.metrics = {"setup_s": setup_s, "op_ms": serve_p50 / 1000.0,
                 "peak_rss_mib": daemon.rss_mib}
    r.report += [f"serve_p50_us {serve_p50:.2f} us at {REFERENCE_RATE}/s (lowest of the "
                 f"{len(ref_p50s)} phases' medians; median of them {ref['p50_us']:.2f} us)",
                 f"serve_p99_us {ref['p99_us']:.2f} us at {REFERENCE_RATE}/s",
                 f"serve_max_rps {max_rps} req/s (p99 <= {LATENCY_LIMIT_US:.0f} us)",
                 f"routedbd: {stats.get('requests')} requests, {stats.get('queries')} queries in "
                 f"{stats.get('batches')} batches, {stats.get('overload_replies')} shed, "
                 f"{stats.get('send_drops')} send drops, {stats.get('duplicate_requests')} "
                 f"duplicates; client: {load['client_send_retries']} sends retried after "
                 f"EAGAIN, {load['retransmits']} requests retransmitted",
                 f"serve_peak_rss_mib {daemon.rss_mib:.1f} MiB"]
    return r


# ------------------------------------------------------------------- batch-100k

def batch_100k(ctx):
    r = Result()
    d = os.path.join(ctx.work, "in")
    hosts = HOSTS_1M if ctx.variant == "image1m" else HOSTS_100K
    flags = ["--threads", "4", "--cache-entries", "4096"] if ctx.variant == "threads4" else []

    def setup(_last):
        maps = generate(ctx, d, hosts, queries=QUERIES)
        ok, _, _ = build_routes(ctx, d, maps)
        if not ok:
            raise RuntimeError("pathalias or routedb freeze failed during set-up")

    setup_s, _ = timed_setups(setup, d)
    queries = os.path.join(d, "queries.txt")
    first = os.path.join(ctx.work, "batch-first.out")
    walls, rss, digests = [], [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < ctx.seconds:
        out_path = first if not walls else os.path.join(ctx.work, "batch.out")
        with open(out_path, "w") as out:
            code, wall, peak = run_timed([ctx.bins["routedb"], "batch", "--image", *flags,
                                          os.path.join(d, "routes.pari"), queries],
                                         os.path.join(ctx.work, "launch.out"), stdout=out)
        r.attempted += QUERIES
        r.failed += 0 if code == 0 else QUERIES
        walls.append(wall)
        rss.append(peak)
        digests.append(sha256_of(out_path))
        if out_path != first:
            remove_files(out_path)
    r.check(len(set(digests)) == 1, "batch output differs between runs")
    proc = run_checked([ctx.bins["perfbench_tool"], "check-batch", "--routes",
                        os.path.join(d, "routes.txt"), "--queries", queries, "--kinds",
                        os.path.join(d, "queries.kind"), "--output", first], r, "check-batch")
    r.report.append(proc.stdout.strip())
    wall = statistics.median(walls)
    r.metrics = {"setup_s": setup_s, "op_ms": wall * 1000.0, "peak_rss_mib": max(rss)}
    r.report += [f"batch_qps {QUERIES / wall:.0f} queries/s (median of {len(walls)} runs of "
                 f"{QUERIES} lines)",
                 f"batch_peak_rss_mib {max(rss):.1f} MiB"]
    return r


WORKLOADS = {"build-1m": build_1m, "update-100k": update_100k, "serve-100k": serve_100k,
             "batch-100k": batch_100k}


# ------------------------------------------------------------------- traced run

# Per-layer metrics: name -> unit.  The traced run prints exactly these.
PER_LAYER = {
    "tools.read_ms": "ms", "tools.write_ms": "ms", "parser.lex_ms": "ms",
    "parser.tokens": "count", "parser.parse_ms": "ms", "parser.declarations": "count",
    "graph.nodes": "count", "graph.links": "count", "graph.arena_mib": "MiB",
    "core.map_ms": "ms", "core.relaxations": "count", "core.heap_pops": "count",
    "core.invented_links": "count", "core.back_link_passes": "count",
    "core.route_build_ms": "ms", "core.render_ms": "ms", "core.routes": "count",
    "route_db.from_text_ms": "ms", "image.freeze_ms": "ms", "support.publish_ms": "ms",
    "image.verify_ms": "ms", "image.bytes": "bytes", "parser.rss_mib": "MiB",
    "core.rss_mib": "MiB", "image.rss_mib": "MiB",
    "incr.state_load_ms": "ms", "incr.state_mib": "MiB", "incr.replay_build_ms": "ms",
    "incr.update_ms": "ms", "incr.edits": "count", "incr.patched_edits": "count",
    "incr.rebuilt_edits": "count", "incr.dirty_nodes": "count", "incr.routes_changed": "count",
    "incr.dirty_route_ids": "count", "image.refreeze_ms": "ms", "incr.state_save_ms": "ms",
    "tools.edit_read_ms": "ms", "net.check_image_ms": "ms",
    "net.socket_rtt_us": "us", "net.encode_request_ns": "ns", "net.decode_request_ns": "ns",
    "net.encode_reply_ns": "ns", "net.decode_reply_ns": "ns", "exec.resolve_ns": "ns",
    "exec.cache_hit_rate": "ratio", "net.queries_per_batch": "queries/batch",
    "net.requests": "count", "net.overload_replies": "count", "net.send_drops": "count",
    "serve.generator_lag_us": "us",
    "image.open_ms": "ms", "route_db.resolve_ns": "ns", "route_db.resolved": "count",
    "route_db.suffix_matches": "count", "tools.io_ms": "ms",
    "trace.build_wall_ms": "ms", "trace.build_unattributed_ms": "ms",
    "trace.build_vs_untraced_pct": "%",
    "trace.update_wall_ms": "ms", "trace.update_unattributed_ms": "ms",
    "trace.update_vs_untraced_pct": "%",
    "trace.batch_wall_ms": "ms", "trace.batch_unattributed_ms": "ms",
    "trace.batch_vs_untraced_pct": "%",
}


def traced(ctx, workload):
    """Per-layer numbers: the tools' own counters from short untraced drives,
    then the in-process traced replay of every flow."""
    r = Result()
    u = os.path.join(ctx.work, "in")
    maps = generate(ctx, u, HOSTS_100K, requests=REQUESTS, queries=QUERIES, edits=EDITS)
    ok, _, _ = build_routes(ctx, u, maps)
    r.check(ok, "pathalias or routedb freeze failed")
    build_dir = u
    build_maps = maps
    if workload == "build-1m":
        build_dir = os.path.join(ctx.work, "in1m")
        build_maps = generate(ctx, build_dir, HOSTS_1M)
    local = first_line(os.path.join(u, "local.txt"))

    # routedbd at the reference rate: its exit stats line.
    sock = os.path.join(ctx.work, "d.sock")
    daemon = Daemon(ctx.bins["routedbd"], os.path.join(u, "routes.pari"), sock,
                    os.path.join(ctx.work, "routedbd.log"))
    try:
        run_checked([ctx.bins["perfbench_tool"], "load", "--socket", sock, "--requests",
                     os.path.join(u, "requests.txt"), "--routes", os.path.join(u, "routes.txt"),
                     "--phases", f"{REFERENCE_RATE}:2000", "--busy-poll",
                     "1" if BUSY_POLL else "0", "--out", os.path.join(ctx.work, "load.json")],
                    r, "load generator",
                    preexec_fn=pin(CLIENT_CPUS))
    finally:
        stats = daemon.stop()
    r.check(daemon.exit_code == 0, f"routedbd exit {daemon.exit_code}")
    with open(os.path.join(ctx.work, "load.json")) as f:
        phase = json.load(f)["phases"][0]
    r.check(phase["mismatches"] == 0, "served answers differ from the reference")
    batches = max(1, stats.get("batches", 0))

    # routedb update --stats over the first edits, on a copy of the map.
    cli = os.path.join(ctx.work, "cli")
    shutil.copytree(os.path.join(u, "maps"), os.path.join(cli, "maps"))
    cli_maps = sorted(glob.glob(os.path.join(cli, "maps", "*.map")))
    cli_image = os.path.join(cli, "routes.pari")
    run_checked([ctx.bins["routedb"], "update", "--init", "--local", local, cli_image, *cli_maps],
                r, "routedb update --init")
    update_walls, cli_patched, cli_rebuilt = [], 0, 0
    for edit_id, file_name, _, _, _ in read_edits(u)[:TRACE_EDITS]:
        target = os.path.join(cli, "maps", file_name)
        shutil.copyfile(os.path.join(u, "edits", edit_id + ".map"), target)
        start = time.perf_counter()
        proc = run_checked([ctx.bins["routedb"], "update", "--stats", cli_image, target], r,
                           "routedb update")
        update_walls.append(time.perf_counter() - start)
        cli_patched += proc.stderr.count("update stats: patched=1")
        cli_rebuilt += proc.stderr.count("update stats: patched=0")

    # routedb batch --stats with default settings.
    with open(os.path.join(ctx.work, "batch.out"), "w") as out:
        start = time.perf_counter()
        proc = subprocess.run([ctx.bins["routedb"], "batch", "--image", "--stats",
                               os.path.join(u, "routes.pari"), os.path.join(u, "queries.txt")],
                              stdout=out, stderr=subprocess.PIPE, text=True)
        batch_wall = time.perf_counter() - start
    r.check(proc.returncode == 0, "routedb batch failed")
    cli_resolved = int(proc.stderr.split(" resolved")[0].split()[-1].split("/")[0])

    # The untraced build, for the tracing overhead.
    ok, build_wall, _ = build_routes(ctx, build_dir, build_maps)
    r.check(ok, "untraced build failed")

    proc = run_checked([ctx.bins["perfbench_tool"], "trace", "--build-dir", build_dir,
                        "--update-dir", u, "--serve-dir", u, "--batch-size",
                        str(max(1, round(stats.get("queries", 0) / batches))), "--edits",
                        str(TRACE_EDITS), "--spans", os.path.join(ctx.work, "spans.json")],
                       r, "traced replay")
    m = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.returncode == 0 else {}
    m["net.queries_per_batch"] = stats.get("queries", 0) / batches
    m["net.requests"] = stats.get("requests", 0)
    m["net.overload_replies"] = stats.get("overload_replies", 0)
    m["net.send_drops"] = stats.get("send_drops", 0)
    m["serve.generator_lag_us"] = phase["lag_p99_us"]
    if m.get("trace.build_wall_ms"):
        # The traced build adds a lexer-only pass the tools do not make.
        traced_build = m["trace.build_wall_ms"] - m["parser.lex_ms"]
        m["trace.build_vs_untraced_pct"] = (traced_build / (build_wall * 1000) - 1) * 100
        m["trace.update_vs_untraced_pct"] = (
            m["trace.update_wall_ms"] / (statistics.median(update_walls) * 1000) - 1) * 100
        m["trace.batch_vs_untraced_pct"] = (
            m["trace.batch_wall_ms"] / (batch_wall * 1000) - 1) * 100
        r.check(m["route_db.resolved"] == cli_resolved,
                f"traced batch resolved {m['route_db.resolved']}, routedb batch {cli_resolved}")
        r.check((m["incr.patched_edits"], m["incr.rebuilt_edits"]) == (cli_patched, cli_rebuilt),
                "traced update's patch/rebuild split differs from routedb update --stats")
    missing = [name for name in PER_LAYER if name not in m]
    r.check(not missing, f"traced run lacks {missing}")
    r.metrics = {name: m.get(name, 0) for name in PER_LAYER}
    r.attempted = 1 + TRACE_EDITS + 1 + phase["sent"]
    r.failed = phase["timeouts"] + phase["overloaded"] + phase["broken"]
    share = {layer: m.get(layer, 0) for layer in
             ("tools.read_ms", "parser.parse_ms", "core.map_ms", "core.route_build_ms",
              "core.render_ms", "tools.write_ms", "route_db.from_text_ms", "image.freeze_ms",
              "support.publish_ms", "image.verify_ms", "trace.build_unattributed_ms")}
    wall = max(1e-9, m.get("trace.build_wall_ms", 0) - m.get("parser.lex_ms", 0))
    r.report.append("build flow self time: " + ", ".join(
        f"{k} {v:.0f} ms ({100 * v / wall:.0f}%)" for k, v in share.items()))
    r.report.append(f"tracing overhead vs untraced: build "
                    f"{m.get('trace.build_vs_untraced_pct', 0):+.1f}%, update "
                    f"{m.get('trace.update_vs_untraced_pct', 0):+.1f}%, batch "
                    f"{m.get('trace.batch_vs_untraced_pct', 0):+.1f}%")
    return r
