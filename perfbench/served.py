"""The served side: cdr_serve in its own process group, a JSONL client with
client-side deadlines, the closed and open loops, and /proc resource capture.
"""

import json
import os
import signal
import select
import subprocess
import time

CLK_TCK = os.sysconf("SC_CLK_TCK")


class Server:
    """cdr_serve (plus any replicas it forks) in a process group of its own,
    so one killpg stops all of it, on any exit path. One thread drives it:
    responses are read, timestamped and parsed whenever the client waits
    (select on the pipe), so no thread hand-off sits inside a latency."""

    def __init__(self, exe, args, log_path):
        env = {k: v for k, v in os.environ.items() if k != "CDR_OBS"}  # tracing off
        self._log = open(log_path, "ab")
        self.proc = subprocess.Popen(
            [exe] + list(args),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=self._log,
            start_new_session=True,
            env=env,
        )
        self.pgid = self.proc.pid
        self._fd = self.proc.stdout.fileno()
        self._buf = b""
        self._eof = False
        self._responses = {}

    def pump(self, timeout):
        """Reads whatever arrives within `timeout` seconds."""
        if self._eof or not select.select([self._fd], [], [], max(0.0, timeout))[0]:
            return
        data = os.read(self._fd, 1 << 16)
        t = time.perf_counter()
        if not data:
            self._eof = True
            return
        *lines, self._buf = (self._buf + data).split(b"\n")
        for raw in lines:
            try:
                obj = json.loads(raw)
            except ValueError:
                continue
            self._responses[obj.get("id")] = (t, obj)

    def send(self, line):
        self.proc.stdin.write(line.encode() + b"\n")
        self.proc.stdin.flush()
        return time.perf_counter()

    def wait(self, rid, deadline):
        """(receive time, response) or None once perf_counter() passes deadline."""
        while rid not in self._responses:
            left = deadline - time.perf_counter()
            if left <= 0 or self._eof:
                return None
            self.pump(left)
        return self._responses.pop(rid)

    def ask(self, line, rid, timeout):
        sent = self.send(line)
        got = self.wait(rid, sent + timeout)
        return sent, got

    def group_pids(self):
        return group_pids(self.pgid)

    def close(self, grace=10.0):
        """Close stdin (the server drains and reaps its replicas), then
        SIGTERM and SIGKILL the group if it does not end in time; returns
        once every process of the group has ended."""
        pids = set(self.group_pids())
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(grace)
        except subprocess.TimeoutExpired:
            kill_group(self.pgid, signal.SIGTERM)
            try:
                self.proc.wait(2.0)
            except subprocess.TimeoutExpired:
                pass
        kill_group(self.pgid, signal.SIGKILL)
        self.proc.wait()
        wait_ended(pids | set(self.group_pids()))
        self.proc.stdout.close()
        self._log.close()


def kill_group(pgid, sig):
    try:
        os.killpg(pgid, sig)
    except (ProcessLookupError, PermissionError):
        pass


def _stat_fields(pid):
    with open(f"/proc/{pid}/stat") as f:
        raw = f.read()
    # the command name may hold spaces; fields resume after its ')'
    return raw[raw.rindex(")") + 2:].split()


def group_pids(pgid):
    pids = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                fields = _stat_fields(int(entry))
            except (OSError, ValueError):
                continue
            if int(fields[2]) == pgid and fields[0] != "Z":
                pids.append(int(entry))
    return pids


def wait_ended(pids, timeout=5.0):
    end = time.monotonic() + timeout
    for pid in pids:
        while time.monotonic() < end:
            try:
                if _stat_fields(pid)[0] in ("Z", "X"):
                    break
            except (OSError, ValueError):
                break
            time.sleep(0.02)


def usage(pids):
    """{pid: (VmHWM MiB, utime+stime ms)} read from /proc."""
    out = {}
    for pid in pids:
        try:
            fields = _stat_fields(pid)
            with open(f"/proc/{pid}/status") as f:
                hwm = next(int(l.split()[1]) for l in f if l.startswith("VmHWM:"))
        except (OSError, ValueError, StopIteration):
            continue
        cpu_ms = (int(fields[11]) + int(fields[12])) * 1000.0 / CLK_TCK
        out[pid] = (hwm / 1024.0, cpu_ms)
    return out


class Record:
    __slots__ = ("item", "rid", "line", "scheduled", "sent", "received", "response", "rate", "ok")

    def __init__(self, item, rid, line, scheduled, rate=None):
        self.item, self.rid, self.line = item, rid, line
        self.scheduled, self.rate = scheduled, rate
        self.sent = self.received = self.response = None
        self.ok = False

    def latency_ms(self):
        if self.received is None:
            return None
        return (self.received - self.scheduled) * 1e3


def rid_of(line):
    return json.loads(line)["id"]


def closed_loop(server, rounds, n_rounds, timeout):
    """One client: each request is sent when the previous one is answered,
    for n_rounds whole rounds, so every run samples the pool's exact mix. A
    request unanswered after `timeout` seconds is recorded as failed and
    ends the loop."""
    records = []
    t0 = time.perf_counter()
    for _ in range(n_rounds):
        for it, line in next(rounds):
            rec = Record(it, rid_of(line), line, time.perf_counter())
            rec.sent, got = server.ask(line, rec.rid, timeout)
            records.append(rec)
            if got is None:
                return records, time.perf_counter() - t0, 0.0
            rec.received, rec.response = got
    return records, time.perf_counter() - t0, 0.0


def open_loop(server, schedule, timeout):
    """Sends on the schedule whatever the replies; latency counts from the
    scheduled instant. Returns (records, wall seconds, max generator
    lateness in ms)."""
    records = [Record(it, rid_of(line), line, None, rate) for _, rate, it, line in schedule]
    t0 = time.perf_counter() + 0.05
    late = 0.0
    for rec, (offset, _, _, line) in zip(records, schedule):
        rec.scheduled = t0 + offset
        while time.perf_counter() < rec.scheduled:
            server.pump(rec.scheduled - time.perf_counter())
        rec.sent = server.send(line)
        late = max(late, (rec.sent - rec.scheduled) * 1e3)
    for rec in records:
        got = server.wait(rec.rid, rec.scheduled + timeout)
        if got is not None:
            rec.received, rec.response = got
    return records, time.perf_counter() - t0, late
