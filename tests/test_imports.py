"""What importing odac loads, checked in fresh interpreters.

`import odac` must not load scipy, and neither must `import odac.cli`
or a command on the brute-force path: only the kd-tree needs scipy, and
`scipy.spatial` loads when a pass first builds one. No other module is
imported while a command runs, since `odac.cli` loads everything else a
command uses before it starts. Every command gives back its free heap
when it ends.
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

# argparse's gettext imports `locale` when the first parser is built,
# before a command allocates anything; build one first, so only the
# commands' own imports are compared.
cli._build_parser()
workdir = sys.argv[1]
labeled = ["--header", "--label-col", "label"]
score_6d = ["score", "--in", f"{workdir}/d6.csv", *labeled, "--out", f"{workdir}/r6.csv"]
commands = {
    "score 25-D": ["score", "--in", f"{workdir}/d25.csv", *labeled, "--out", f"{workdir}/r25.csv"],
    "sweep": ["sweep", "--in", f"{workdir}/d25.csv", *labeled, "--vary", "sn",
              "--values", "5,10", "--out", f"{workdir}/sweep.csv"],
    "generate": ["generate", "--dim", "3", "--normal", "40", "--anomalies", "5",
                 "--out", f"{workdir}/scene.csv"],
    "first score 6-D": score_6d,
    "second score 6-D": score_6d,
    "eval": ["eval", "--in", f"{workdir}/d6.csv", *labeled, "--out", f"{workdir}/eval.csv"],
}
changed, scipy = {}, {}
for name, argv in commands.items():
    before = set(sys.modules)
    assert cli.main(argv) == 0, name
    changed[name] = sorted(set(sys.modules) ^ before)
    scipy[name] = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
print(json.dumps([changed, scipy]))
"""


def write_scenes(workdir):
    """A 6-D scene of 3 kd-tree blocks, so the pass's thread pool starts on 2 or
    more CPUs, and a 25-D scene, which takes the brute path."""
    for dim, normal in ((6, 3 * _BLOCK), (25, 300)):
        spec = SyntheticSpec(dim=dim, normal_count=normal, anomaly_count=10, seed=dim)
        ingest.write_csv(datagen.generate(spec), workdir / f"d{dim}.csv")


def test_only_the_first_tree_build_imports_a_module(tmp_path):
    write_scenes(tmp_path)
    changed, scipy = json.loads(run_fresh(COMMANDS, tmp_path).splitlines()[-1])
    # The brute path and the generator run on numpy alone. The generator
    # loads numpy.random, which numpy imports on first use.
    assert scipy["score 25-D"] == scipy["sweep"] == scipy["generate"] == []
    assert changed["score 25-D"] == changed["sweep"] == []
    # The first kd-tree build loads scipy; after it, no command imports a module.
    assert "scipy.spatial" in changed["first score 6-D"]
    assert changed["second score 6-D"] == []
    assert changed["eval"] == []


FREE_HEAP = """
import ctypes, json, sys
from odac import cli

def rss_mib():
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024

workdir = sys.argv[1]
labeled = ["--header", "--label-col", "label"]
score_6d = ["score", "--in", f"{workdir}/d6.csv", *labeled]
commands = {
    "score 6-D": (score_6d + ["--sn", "200", "--out", f"{workdir}/r6.csv"], 0),
    "score 25-D": (
        ["score", "--in", f"{workdir}/d25.csv", *labeled, "--out", f"{workdir}/r25.csv"], 0
    ),
    "underflowing score 6-D": (score_6d + ["--nd", "1e-320", "--out", f"{workdir}/r.csv"], 1),
}
trim = ctypes.CDLL(None).malloc_trim
given_back = {}
for name, (argv, code) in commands.items():
    assert cli.main(argv) == code, name
    before = rss_mib()
    trim(0)
    given_back[name] = before - rss_mib()
print(json.dumps(given_back))
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc malloc only")
def test_every_command_gives_back_its_free_heap(tmp_path):
    # Free heap under glibc's trim threshold would stay resident, and the
    # next command's allocations would stack on top of it. Without the
    # trim in `cli.main`, the 6-D score left 2.1 MiB of it resident on
    # 2 CPUs but only 0.6 MiB on one; the 25-D score, after it, left
    # 2.3 MiB on either, so a missing trim fails on one CPU too.
    write_scenes(tmp_path)
    given_back = json.loads(run_fresh(FREE_HEAP, tmp_path).splitlines()[-1])
    assert given_back.keys() == {"score 6-D", "score 25-D", "underflowing score 6-D"}
    assert all(mib < 1.0 for mib in given_back.values()), given_back
