"""What importing odac loads, checked in fresh interpreters.

`import odac` must not load scipy: the modules that need it load on
first access. A command must not import a module while it runs either,
since `odac.cli` loads everything a command uses before it starts.
Importing `odac.cli` also fixes glibc's malloc thresholds, so a large
array freed by a command goes back to the system.
"""

import json
import os
import platform
import subprocess
import sys

import pytest

from odac import SyntheticSpec, datagen, ingest
from odac.fast import _BLOCK

from conftest import REPO_ROOT


def run_fresh(code, *args):
    """Run `code` in a new interpreter that imports odac from this checkout; return its stdout."""
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", code, *map(str, args)],
        env=env, capture_output=True, text=True, timeout=300, check=False,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


NAMESPACE = """
import sys
import odac
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
print(sorted(set(odac.__all__) - set(dir(odac))))
for name in odac.__all__ + ["fast", "evaluate"]:
    assert getattr(odac, name) is not None, name
assert odac.score_all_fast is odac.fast.score_all_fast
star = {}
exec("from odac import *", star)
print(sorted(set(odac.__all__) - set(star)))
"""


def test_import_odac_loads_no_scipy_and_every_name_resolves():
    scipy_modules, not_listed, not_bound = run_fresh(NAMESPACE).splitlines()
    assert scipy_modules == "[]"
    assert not_listed == "[]"  # dir(odac) lists all of __all__
    assert not_bound == "[]"  # `from odac import *` binds all of __all__


COMMANDS = """
import json, sys
from odac import cli

workdir = sys.argv[1]
labeled = ["--header", "--label-col", "label"]
commands = {
    "score 6-D": ["score", "--in", f"{workdir}/d6.csv", *labeled, "--out", f"{workdir}/r6.csv"],
    "score 25-D": ["score", "--in", f"{workdir}/d25.csv", *labeled, "--out", f"{workdir}/r25.csv"],
    "sweep": ["sweep", "--in", f"{workdir}/d25.csv", *labeled, "--vary", "sn",
              "--values", "5,10", "--out", f"{workdir}/sweep.csv"],
    "eval": ["eval", "--in", f"{workdir}/d6.csv", *labeled, "--out", f"{workdir}/eval.csv"],
    "generate": ["generate", "--dim", "3", "--normal", "40", "--anomalies", "5",
                 "--out", f"{workdir}/scene.csv"],
}
changed = {}
for name, argv in commands.items():
    before = set(sys.modules)
    assert cli.main(argv) == 0, name
    changed[name] = sorted(set(sys.modules) ^ before)
print(json.dumps(changed))
"""


def test_no_command_imports_a_module(tmp_path):
    # 3 blocks of the 6-D scene start the kd-tree pass's thread pool on 2
    # or more CPUs; the 25-D scene takes the brute path.
    for dim, normal in ((6, 3 * _BLOCK), (25, 300)):
        spec = SyntheticSpec(dim=dim, normal_count=normal, anomaly_count=10, seed=dim)
        ingest.write_csv(datagen.generate(spec), tmp_path / f"d{dim}.csv")
    changed = json.loads(run_fresh(COMMANDS, tmp_path).splitlines()[-1])
    assert changed == dict.fromkeys(["score 6-D", "score 25-D", "sweep", "eval", "generate"], [])


FREED_BLOCKS = """
import numpy as np
import odac.cli

def rss_mib():
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024

before = rss_mib()
for _ in range(3):
    block = np.ones(20 << 17)  # 20 MiB
    del block
print(rss_mib() - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc malloc only")
def test_freed_large_blocks_return_to_the_system():
    # With glibc's moving thresholds, freeing the first block raises the
    # mmap threshold past 20 MiB, so the next ones come from the heap and
    # stay resident after they are freed.
    assert float(run_fresh(FREED_BLOCKS)) < 4.0
