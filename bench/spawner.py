"""Helper process that starts the benchmark's child processes.

A child's peak RSS as wait4 reports it includes the RSS of the process it
was forked from. The benchmark grows to hundreds of MB (bundles in memory,
the in-process traced run), so children forked from it directly would
report its memory as theirs. This helper is started while the benchmark
is still small and forks every child instead.

Protocol: one JSON request per line on stdin, {"argv": [...], "log": path};
one JSON reply per line on stdout, {"wall_s", "cpu_s", "rss_mb",
"returncode"}. The child's output goes to the log file. The helper exits
when stdin closes.
"""

import json
import os
import subprocess
import sys
import time


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["log"], "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(request["argv"], stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=subprocess.STDOUT)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({"wall_s": wall,
                          "cpu_s": usage.ru_utime + usage.ru_stime,
                          "rss_mb": usage.ru_maxrss / 1024.0,
                          "returncode": proc.returncode}), flush=True)


if __name__ == "__main__":
    main()
