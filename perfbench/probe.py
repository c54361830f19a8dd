"""Set-up probe: what every console-script user pays before the first job.

A fresh interpreter imports `susyqm.cli` and writes one workload's configs.
`run.py` times this whole process from outside to get `setup_s`.

    python3 perfbench/probe.py WORKLOAD SEED DIRECTORY
"""

import os
import sys

from workloads import load_cli, make_jobs, write_configs

if __name__ == "__main__":
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    workload, seed, directory = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    load_cli(root)
    write_configs(make_jobs(workload, seed, root), directory)
