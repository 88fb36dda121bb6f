"""Process and socket helpers for perfbench/run.py.

A minimal routedbd client written from the wire format (src/net/wire.h), kept
apart from the program's own client code, plus helpers that start, time and
stop the shipped binaries and always reap them.
"""

import os
import signal
import socket
import struct
import subprocess
import time

REQUEST_MAGIC = 0x51444150
REPLY_MAGIC = 0x52444150
HEADER = struct.Struct("<IHHQHHI")
STATUS_EXACT = 1  # a reply entry's status for an exact host or domain match


def encode_request(request_id, names):
    body = b"".join(struct.pack("<H", len(n)) + n.encode() for n in names)
    return HEADER.pack(REQUEST_MAGIC, 1, 0, request_id, len(names), len(names), 0) + body


def decode_reply(datagram):
    """Returns (request_id, flags, [(status, via, route)]) or None."""
    if len(datagram) < HEADER.size:
        return None
    magic, version, flags, request_id, count, _, _ = HEADER.unpack_from(datagram)
    if magic != REPLY_MAGIC or version != 1:
        return None
    at = HEADER.size
    results = []
    for _ in range(count):
        status, via_len, route_len = struct.unpack_from("<BHH", datagram, at)
        at += 5
        via = datagram[at:at + via_len].decode()
        at += via_len
        route = datagram[at:at + route_len].decode()
        at += route_len
        results.append((status, via, route))
    return request_id, flags, results


class Client:
    """One bound unix datagram socket that asks routedbd one request at a time."""

    def __init__(self, daemon_path, own_path):
        self.daemon_path = daemon_path
        self.own_path = own_path
        if os.path.exists(own_path):
            os.unlink(own_path)
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_DGRAM)
        self.sock.bind(own_path)
        self.next_id = 1

    def ask(self, names, timeout=0.5):
        """Returns the reply's results, or None on timeout or a shed request."""
        request_id = self.next_id
        self.next_id += 1
        self.sock.sendto(encode_request(request_id, names), self.daemon_path)
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return None
            self.sock.settimeout(remaining)
            try:
                datagram = self.sock.recv(65536)
            except socket.timeout:
                return None
            reply = decode_reply(datagram)
            if reply is not None and reply[0] == request_id:
                return reply[2] if reply[1] == 0 else None

    def close(self):
        self.sock.close()
        if os.path.exists(self.own_path):
            os.unlink(self.own_path)


# routedbd gets the last CPU and the load generator the others, so the two never
# share a CPU and the scheduler does not move them between runs.  (Unpinned, the
# same daemon's median round trip switched between ~21 and ~36 us from run to
# run on a 4-CPU VM; pinned it stays within a few percent.)  One CPU: no pinning.
_CPUS = sorted(os.sched_getaffinity(0))
DAEMON_CPUS = _CPUS[-1:] if len(_CPUS) > 1 else _CPUS
CLIENT_CPUS = _CPUS[:-1] if len(_CPUS) > 1 else _CPUS
# The load generator's receiver busy-polls only when it has a CPU of its own,
# apart from the sender's: a spinning receiver that shares a CPU with the sender
# (or with routedbd) would make the round trip measure scheduler time slices.
BUSY_POLL = len(CLIENT_CPUS) >= 2


def pin(cpus):
    """A preexec_fn that binds the child to `cpus`."""
    return lambda: os.sched_setaffinity(0, cpus)


_LIVE = set()  # children started by spawn() and not reaped yet


def spawn(cmd, **kwargs):
    """Popen that remembers the child until wait_child() reaps it."""
    proc = subprocess.Popen(cmd, **kwargs)
    _LIVE.add(proc)
    return proc


def wait_child(proc, options=0):
    """Reaps `proc` with wait4; returns (exit code, max RSS in MiB), or None when
    options holds os.WNOHANG and the child is still running."""
    pid, status, usage = os.wait4(proc.pid, options)
    if pid == 0:
        return None
    proc.returncode = os.waitstatus_to_exitcode(status)
    _LIVE.discard(proc)
    return proc.returncode, usage.ru_maxrss / 1024.0


def reap_all():
    """Kills and reaps every child still running (after an error)."""
    for proc in list(_LIVE):
        proc.kill()
        wait_child(proc)


# `perfbench_tool launch`, set by run.py once the tool is built.  A command
# forked straight from this (Python) process would count this process's memory
# in its ru_maxrss; the launcher forks it from a process of ~1 MiB instead.
LAUNCHER = None


class Timed:
    """A command run through the launcher, which records its wall time and peak RSS."""

    def __init__(self, cmd, record, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL):
        self.record = record
        self.proc = spawn([LAUNCHER, "launch", record, "--", *cmd], stdout=stdout, stderr=stderr)

    def poll(self, block=False):
        """(exit code, wall seconds, max RSS MiB), or None while it runs."""
        if wait_child(self.proc, 0 if block else os.WNOHANG) is None:
            return None
        try:
            with open(self.record) as f:
                code, wall, rss_kib = f.read().split()
        except (OSError, ValueError):
            return self.proc.returncode or 1, 0.0, 0.0
        return int(code), float(wall), int(rss_kib) / 1024.0


def run_timed(cmd, record, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL):
    """Runs cmd to completion; returns (exit code, wall seconds, max RSS MiB)."""
    return Timed(cmd, record, stdout, stderr).poll(block=True)


def peak_rss_mib(pid):
    """VmHWM of a running process: its own peak RSS since exec."""
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


class Daemon:
    """A routedbd serving `image` on a unix socket, started and reaped by us."""

    def __init__(self, binary, image, sock_path, log_path, extra=()):
        self.log_path = log_path
        self.exit_code = None
        self.rss_mib = 0.0
        read_fd, write_fd = os.pipe()
        self.log = open(log_path, "w")
        try:
            self.proc = spawn(
                [binary, "--image", image, "--unix", sock_path, "--ready-fd", str(write_fd),
                 *extra],
                stdout=self.log, stderr=self.log, pass_fds=(write_fd,),
                preexec_fn=pin(DAEMON_CPUS))
        finally:
            os.close(write_fd)
        with os.fdopen(read_fd) as ready:
            line = ready.readline()
        if not line.startswith("ready"):
            self.stop()
            raise RuntimeError(f"routedbd did not become ready; see {log_path}")
        self.udp_port = int(line.split()[1])  # 0 unless --udp was given

    def stop(self):
        """SIGTERM, reap, and return the exit stats line as a dict."""
        if self.proc.returncode is None:
            self.rss_mib = peak_rss_mib(self.proc.pid)
            self.proc.send_signal(signal.SIGTERM)
            self.exit_code, _ = wait_child(self.proc)
        self.log.close()
        stats = {}
        with open(self.log_path) as log:
            for line in log:
                if "exiting;" in line:
                    for field in line.split("exiting;", 1)[1].split():
                        key, _, value = field.partition("=")
                        stats[key] = int(value)
        return stats
