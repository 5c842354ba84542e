"""Spawn commands on request and report their exit status and resource use.

The kernel counts the memory of the process a command was spawned from
into that command's ``ru_maxrss``: the spawner's high-water mark is
carried across fork and exec. The benchmark holds whole reports in
memory, so it spawns commands from this small process instead.

Run as ``spawner.py FD`` where FD is one end of a SOCK_SEQPACKET socket
pair. Each request is a JSON argv list sent with two descriptors, the
command's stdout and stderr. Each reply is a JSON object with ``code``,
``wall_s`` (spawn to exit), ``cpu_s`` (user plus system, including the
children the command reaped) and ``rss_mb`` (peak resident set of the
command or any process it reaped). The spawner exits when the other
end of the socket is closed.
"""

import json
import os
import socket
import subprocess
import sys
import time


def main():
    sock = socket.socket(fileno=int(sys.argv[1]))
    while True:
        message, fds, _, _ = socket.recv_fds(sock, 1 << 16, 2)
        if not message:
            return
        try:
            start = time.perf_counter()
            proc = subprocess.Popen(json.loads(message), stdout=fds[0], stderr=fds[1])
        finally:
            for fd in fds:
                os.close(fd)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        sock.send(json.dumps({
            "code": proc.returncode,
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024,
        }).encode())


if __name__ == "__main__":
    main()
