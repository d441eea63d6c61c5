#!/usr/bin/env python3
"""Multi-tenant load generator for the scoring server (`dm-serve`).

Speaks the server's length-prefixed JSON protocol (4-byte big-endian
frame length, then a UTF-8 JSON request — see
`crates/serve/src/protocol.rs`) with N concurrent tenants, each on its own
connection. Every tenant scores the same program family with
tenant-specific data, alternating two input size classes so the run
exercises plan-cache hits AND misses, and optionally marks requests
batchable so concurrent vector scorings coalesce.

Two ways to point it at a server, both stdlib-only:

* `--spawn CMD...` — run CMD (typically
  `cargo run --release --example scoring_server`) with
  `DMML_SERVE_ADDR=127.0.0.1:0`, parse the `scoring listening on ADDR`
  banner, run the load, then terminate it.
* `--addr HOST:PORT` — load an already-running server.

Exit code 0 iff every request got a well-formed, successful response
(`protocol errors: 0`). Prints a one-line summary plus per-tenant p50/p99
latency, suitable for the warn-only CI smoke job and for eyeballing E17.

Error lines include the server-assigned request id (`rid`) so a failed
request can be looked up in the server's flight recorder
(`/debug/requests`, `/debug/trace?id=<rid>`). With `--slow MS` (plus
`--metrics HOST:PORT` pointing at the server's metrics endpoint), any
request slower than MS milliseconds gets its server-side per-phase
breakdown printed after the run, fetched from `/debug/requests`.

Usage:
  scripts/loadgen.py --tenants 4 --requests 25 --spawn \\
      cargo run --release --example scoring_server
  scripts/loadgen.py --addr 127.0.0.1:7878 --tenants 8 --requests 50 --batch
  scripts/loadgen.py --addr 127.0.0.1:7878 --metrics 127.0.0.1:9100 --slow 50
"""

import argparse
import base64
import json
import os
import socket
import struct
import subprocess
import sys
import threading
import time
import urllib.request

BANNER = "scoring listening on "


def send_frame(sock: socket.socket, payload: str) -> None:
    raw = payload.encode("utf-8")
    sock.sendall(struct.pack(">I", len(raw)) + raw)


def recv_frame(sock: socket.socket) -> str:
    header = b""
    while len(header) < 4:
        chunk = sock.recv(4 - len(header))
        if not chunk:
            raise ConnectionError("server closed mid-header")
        header += chunk
    (n,) = struct.unpack(">I", header)
    body = b""
    while len(body) < n:
        chunk = sock.recv(min(65536, n - len(body)))
        if not chunk:
            raise ConnectionError("server closed mid-frame")
        body += chunk
    return body.decode("utf-8")


def f64le_slab(values) -> str:
    """The `f64le` input form: base64 of the little-endian f64 bytes."""
    return base64.b64encode(struct.pack("<%dd" % len(values), *values)).decode("ascii")


def score_request(tenant: str, seq: int, batch: bool) -> dict:
    """Alternate two size classes of the same program: even sequence
    numbers share one plan-cache entry, odd ones another. In batch mode
    the program is `X %*% v` — root matmul against the vector, which is
    what the server's micro-batcher coalesces — and the model matrix X
    depends only on the sequence number, so concurrent tenants at the
    same sequence share bit-identical context and may land in one gemm.

    X travels as an `f64le` slab on odd sequence numbers and as a decimal
    `data` array on even ones, so every run exercises both input forms.
    """
    n = 64 if seq % 2 == 0 else 192
    d = 8
    x = [((i * 13 + seq * 7) % 23) * 0.31 - 2.0 for i in range(n * d)]
    v = [((i * 5 + seq) % 11) * 0.17 - 0.6 for i in range(d)]
    x_input = {"rows": n, "cols": d}
    if seq % 2:
        x_input["f64le"] = f64le_slab(x)
    else:
        x_input["data"] = x
    req = {
        "tenant": tenant,
        "cmd": "score",
        "program": "X %*% v" if batch else "t(X) %*% (X %*% v)",
        "inputs": {
            "X": x_input,
            "v": {"rows": d, "cols": 1, "data": v},
        },
    }
    if batch:
        req["batch"] = True
    return req


class TenantStats:
    def __init__(self):
        self.latencies_ms = []
        self.cache_hits = 0
        self.batched = 0
        self.errors = []
        # (rid, seq, latency_ms) for requests over the --slow threshold.
        self.slow = []


def run_tenant(addr, tenant: str, requests: int, batch: bool, stats: TenantStats,
               slow_ms=None) -> None:
    try:
        with socket.create_connection(addr, timeout=30) as sock:
            send_frame(sock, json.dumps({"tenant": tenant, "cmd": "ping"}))
            pong = json.loads(recv_frame(sock))
            if pong.get("kind") != "pong":
                stats.errors.append(f"bad pong: {pong}")
                return
            for seq in range(requests):
                t0 = time.monotonic()
                send_frame(sock, json.dumps(score_request(tenant, seq, batch)))
                resp = json.loads(recv_frame(sock))
                lat_ms = (time.monotonic() - t0) * 1e3
                stats.latencies_ms.append(lat_ms)
                rid = resp.get("rid")  # server-assigned flight-recorder id
                if slow_ms is not None and lat_ms > slow_ms:
                    stats.slow.append((rid, seq, lat_ms))
                if not resp.get("ok"):
                    stats.errors.append(f"seq {seq} rid {rid}: {resp.get('error')}")
                    continue
                if resp.get("kind") != "matrix" or "data" not in resp:
                    stats.errors.append(f"seq {seq} rid {rid}: malformed response {resp}")
                    continue
                stats.cache_hits += resp.get("cache") == "hit"
                stats.batched += bool(resp.get("batched"))
    except (OSError, ConnectionError, json.JSONDecodeError) as e:
        stats.errors.append(f"{type(e).__name__}: {e}")


def quantile(sorted_vals, q):
    if not sorted_vals:
        return float("nan")
    idx = min(len(sorted_vals) - 1, int(q * len(sorted_vals)))
    return sorted_vals[idx]


def fetch_debug_requests(metrics_addr: str, n: int):
    """Fetch recent flight-recorder records and index them by request id."""
    url = f"http://{metrics_addr}/debug/requests?n={n}"
    with urllib.request.urlopen(url, timeout=10) as resp:
        body = json.loads(resp.read().decode("utf-8"))
    return {rec["id"]: rec for rec in body.get("requests", [])}


def print_slow_breakdown(metrics_addr: str, slow, total_requests: int) -> None:
    """For each client-side slow request, print the server's per-phase
    latency attribution from /debug/requests so queue-, compile- and
    batch-wait-dominated requests are distinguishable at a glance."""
    try:
        # Over-fetch: pings and other tenants' traffic consume rids too.
        records = fetch_debug_requests(metrics_addr, total_requests * 2 + 32)
    except (OSError, ValueError) as e:
        print(f"slow: could not fetch /debug/requests from {metrics_addr}: {e}",
              file=sys.stderr)
        return
    for tenant, rid, seq, lat_ms in slow:
        rec = records.get(rid)
        if rec is None:
            print(f"slow: {tenant} seq {seq} rid {rid} {lat_ms:.2f} ms "
                  f"(not in flight recorder — evicted or rid missing)")
            continue
        phases = rec.get("phases", {})
        parts = ", ".join(
            f"{name} {ns / 1e6:.2f}ms"
            for name, ns in sorted(phases.items(), key=lambda kv: -kv[1])
            if ns
        )
        cache = "hit" if rec.get("cache_hit") else "miss"
        print(f"slow: {tenant} seq {seq} rid {rid} {lat_ms:.2f} ms client / "
              f"{rec.get('total_ns', 0) / 1e6:.2f} ms server (cache {cache}): {parts}")


def run_load(addr, tenants: int, requests: int, batch: bool,
             slow_ms=None, metrics_addr=None) -> int:
    per_tenant = {f"tenant-{i}": TenantStats() for i in range(tenants)}
    threads = [
        threading.Thread(target=run_tenant, args=(addr, name, requests, batch, st, slow_ms))
        for name, st in per_tenant.items()
    ]
    t0 = time.monotonic()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall_s = time.monotonic() - t0

    all_lat, errors, hits, batched, done = [], [], 0, 0, 0
    for name, st in sorted(per_tenant.items()):
        lat = sorted(st.latencies_ms)
        all_lat.extend(lat)
        done += len(lat)
        hits += st.cache_hits
        batched += st.batched
        errors.extend(f"{name}: {e}" for e in st.errors)
        print(
            f"{name}: {len(lat)} requests, p50 {quantile(lat, 0.50):.2f} ms, "
            f"p99 {quantile(lat, 0.99):.2f} ms, {st.cache_hits} cache hits, "
            f"{st.batched} batched"
        )
    all_lat.sort()
    expected = tenants * requests
    for e in errors:
        print(f"error: {e}", file=sys.stderr)
    print(
        f"loadgen: {done}/{expected} responses in {wall_s:.2f}s "
        f"({done / wall_s:.0f} req/s), p50 {quantile(all_lat, 0.50):.2f} ms, "
        f"p99 {quantile(all_lat, 0.99):.2f} ms, "
        f"cache hits {hits}, batched {batched}, protocol errors: {len(errors)}"
    )
    if slow_ms is not None:
        slow = [(name, rid, seq, lat)
                for name, st in sorted(per_tenant.items())
                for rid, seq, lat in st.slow]
        print(f"slow: {len(slow)} request(s) over {slow_ms} ms")
        if slow and metrics_addr:
            print_slow_breakdown(metrics_addr, slow, expected)
        elif slow:
            print("slow: pass --metrics HOST:PORT to fetch per-phase breakdowns "
                  "from /debug/requests", file=sys.stderr)
    return 0 if not errors and done == expected else 1


def spawn_server(cmd):
    env = dict(os.environ, DMML_SERVE_ADDR="127.0.0.1:0")
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)
    assert proc.stdout is not None
    addr = None
    for line in proc.stdout:
        sys.stdout.write(line)
        if line.startswith(BANNER):
            host, _, port = line[len(BANNER):].strip().rpartition(":")
            addr = (host, int(port))
            break
    if addr is None:
        proc.terminate()
        raise SystemExit(f"{cmd[0]} exited without printing the scoring banner")
    return proc, addr


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tenants", type=int, default=4)
    ap.add_argument("--requests", type=int, default=25, help="requests per tenant")
    ap.add_argument("--batch", action="store_true", help="mark requests batchable")
    ap.add_argument("--addr", help="host:port of a running server")
    ap.add_argument("--slow", type=float, metavar="MS",
                    help="report requests slower than MS milliseconds; with "
                         "--metrics, print their per-phase breakdown from "
                         "/debug/requests")
    ap.add_argument("--metrics", metavar="HOST:PORT",
                    help="the server's metrics/debug endpoint address")
    ap.add_argument("--spawn", nargs=argparse.REMAINDER,
                    help="command to start a server (everything after --spawn)")
    args = ap.parse_args()

    if args.spawn:
        proc, addr = spawn_server(args.spawn)
        try:
            return run_load(addr, args.tenants, args.requests, args.batch,
                            args.slow, args.metrics)
        finally:
            proc.terminate()
            try:
                proc.communicate(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
    elif args.addr:
        host, _, port = args.addr.rpartition(":")
        return run_load((host, int(port)), args.tenants, args.requests, args.batch,
                        args.slow, args.metrics)
    else:
        ap.error("one of --addr or --spawn is required")
    return 2


if __name__ == "__main__":
    sys.exit(main())
