"""Self-test of the benchmark's output checks.

    python3 perfbench/run.py --self-test

Each check first passes on real output of a small generated map, then must fail
on a copy with one seeded corruption: a flipped route byte, a dropped route, a
stale served image, and a few more.  No stored copy of any output is used.
"""

import json
import os
import shutil
import subprocess

import workloads
from client import Client, Daemon, STATUS_EXACT

HOSTS = 5000
SEED = 7


def flip_byte(text, line_index, field):
    """Changes one character of a tab-separated field on one line."""
    lines = text.split("\n")
    fields = lines[line_index].split("\t")
    value = fields[field]
    at = value.index("!") - 1 if "!" in value else 0
    fields[field] = value[:at] + ("x" if value[at] != "x" else "y") + value[at + 1:]
    lines[line_index] = "\t".join(fields)
    return "\n".join(lines)


def drop_line(text, line_index):
    lines = text.split("\n")
    del lines[line_index]
    return "\n".join(lines)


def multi_hop_line(text):
    for i, line in enumerate(text.split("\n")):
        if line.count("!") >= 2 and "@" not in line:
            return i
    raise RuntimeError("no multi-hop route in the sample")


class SelfTest:
    def __init__(self, bins, work):
        self.bins = bins
        self.work = work
        self.failures = 0

    def expect(self, passes, check, case):
        verdict = "passes" if passes else "fails"
        print(f"{'ok  ' if passes == (case == 'clean') else 'FAIL'} {check}: {verdict} on {case}")
        if passes != (case == "clean"):
            self.failures += 1

    def tool(self, *args):
        return subprocess.run([self.bins["perfbench_tool"], *args], capture_output=True,
                              text=True).returncode == 0

    def write(self, name, text):
        path = os.path.join(self.work, name)
        with open(path, "w") as f:
            f.write(text)
        return path


def run(bins):
    work = os.path.join(".bench_work", "self-test")
    if os.path.exists(work):
        shutil.rmtree(work)
    os.makedirs(work)
    t = SelfTest(bins, work)
    ctx = workloads.Context(bins=bins, work=work, seed=SEED, seconds=1)
    d = os.path.join(work, "in")
    maps = workloads.generate(ctx, d, HOSTS, requests=2000, queries=20000, edits=3)
    ok, _, _ = workloads.build_routes(ctx, d, maps)
    if not ok:
        print("FAIL pathalias or routedb freeze failed on the sample map")
        return 1
    routes_path = os.path.join(d, "routes.txt")
    image = os.path.join(d, "routes.pari")
    hosts = os.path.join(d, "hosts.txt")
    local = workloads.first_line(os.path.join(d, "local.txt"))
    with open(routes_path) as f:
        routes = f.read()
    hop = multi_hop_line(routes)

    # build-1m: route-text properties and image lookups.
    def check_build(text):
        return t.tool("check-build", "--routes", t.write("routes.txt", text), "--hosts", hosts,
                      "--local", local, "--image", image)

    t.expect(check_build(routes), "check-build", "clean")
    t.expect(check_build(flip_byte(routes, hop, 2)), "check-build", "one flipped route byte")
    t.expect(check_build(drop_line(routes, hop)), "check-build", "one dropped route")
    lines = routes.split("\n")
    cost, name, route = lines[hop].split("\t")
    lines[hop] = "\t".join([cost, name, route.replace("%s", "%s%s")])
    t.expect(check_build("\n".join(lines)), "check-build", "a route with two %s")
    local_line = next(i for i, line in enumerate(lines) if line.split("\t")[1:2] == [local])
    lines = routes.split("\n")
    lines[local_line] = f"5\t{local}\t%s"
    t.expect(check_build("\n".join(lines)), "check-build", "local host at cost 5")

    # batch-100k: answers against the reference resolver and the generator's record.
    queries = os.path.join(d, "queries.txt")
    batch_out = os.path.join(work, "batch.out")
    with open(batch_out, "w") as out:
        subprocess.run([bins["routedb"], "batch", "--image", image, queries], stdout=out,
                       stderr=subprocess.DEVNULL, check=True)
    with open(batch_out) as f:
        answers = f.read()

    def check_batch(text):
        return t.tool("check-batch", "--routes", routes_path, "--queries", queries, "--kinds",
                      os.path.join(d, "queries.kind"), "--output", t.write("batch.txt", text))

    t.expect(check_batch(answers), "check-batch", "clean")
    t.expect(check_batch(flip_byte(answers, 0, 1)), "check-batch", "one flipped answer byte")
    t.expect(check_batch(drop_line(answers, 0)), "check-batch", "one dropped answer")

    # serve-100k: every served answer against the reference, in the load generator.
    sock = os.path.join(work, "d.sock")
    daemon = Daemon(bins["routedbd"], image, sock, os.path.join(work, "routedbd.log"))
    try:
        requests = os.path.join(d, "requests.txt")
        with open(requests) as f:
            first_hit = next(tok[2:] for line in f for tok in line.split() if tok[0] == "h")
        hit_line = next(i for i, line in enumerate(routes.split("\n"))
                        if line.split("\t")[1:2] == [first_hit])

        def check_serve(text):
            out = os.path.join(work, "load.json")
            subprocess.run([bins["perfbench_tool"], "load", "--socket", sock, "--requests",
                            requests, "--routes", t.write("ref.txt", text), "--phases",
                            "2000:500", "--out", out], capture_output=True, check=True)
            with open(out) as f:
                phase = json.load(f)["phases"][0]
            return phase["mismatches"] == 0 and phase["answered"] == phase["sent"]

        t.expect(check_serve(routes), "serve answers", "clean")
        t.expect(check_serve(flip_byte(routes, hit_line, 2)), "serve answers",
                 "one flipped route byte in the reference")
    finally:
        daemon.stop()

    # update-100k: served image against a fresh pathalias run over the edited
    # files, and the marker rule.
    edit_id, file_name, _, marker, declarer = workloads.read_edits(d)[0]
    edited = os.path.join(work, "edited")
    shutil.copytree(os.path.join(d, "maps"), os.path.join(edited, "maps"))
    shutil.copyfile(os.path.join(d, "local.txt"), os.path.join(edited, "local.txt"))
    shutil.copyfile(os.path.join(d, "edits", edit_id + ".map"),
                    os.path.join(edited, "maps", file_name))
    edited_maps = sorted(os.path.join(edited, "maps", m) for m in os.listdir(
        os.path.join(edited, "maps")))
    workloads.build_routes(ctx, edited, edited_maps)
    fresh = os.path.join(edited, "routes.txt")
    with open(fresh) as f:
        names = t.write("names.txt", "".join(line.split("\t")[1] + "\n" for line in f))
    for served, case in ((os.path.join(edited, "routes.pari"), "clean"),
                         (image, "a stale served image")):
        daemon = Daemon(bins["routedbd"], served, sock, os.path.join(work, "routedbd.log"))
        try:
            t.expect(t.tool("dump", "--socket", sock, "--names", names, "--routes", fresh),
                     "served routes vs fresh pathalias", case)
            client = Client(sock, os.path.join(work, "marker.sock"))
            try:
                answer = client.ask([marker, declarer])
            finally:
                client.close()
            t.expect(workloads.marker_answer_ok(answer, marker), "marker rule", case)
            if case == "clean":
                (_, via, route), declared = answer
                wrong = [(STATUS_EXACT, via, route.replace(marker, marker + "x")), declared]
                t.expect(workloads.marker_answer_ok(wrong, marker), "marker rule",
                         "one flipped marker route byte")
        finally:
            daemon.stop()

    print(f"self-test: {'all checks catch their corruptions' if t.failures == 0 else 'FAILED'}")
    return 0 if t.failures == 0 else 1
