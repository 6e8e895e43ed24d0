"""The benchmark's tracer still finds every name it wraps.

``perfbench/tracer.py`` replaces functions by name on the pipeline's
modules and binds ``search_stimulus``'s ``accept`` argument by name, so a
rename that it misses would break only traced benchmark runs.  Evaluate's
replay must also reach ``SimKernel.run`` and ``check_assertion`` through
the wrapped names, or its cycle and check counts would read low.  The
wrappers stay for the life of a process, so the check runs in a fresh one.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """\
from importlib import import_module

from perfbench.tracer import Tracer

tracer = Tracer()
tracer.install()

from svaport.rtl_parser import parse_design
from svaport.sva import parse_assertions
from tests.test_trojan import TOY_RTL, TOY_SVA

# the package exports functions named like these modules
translate = import_module("svaport.translate")
trojan = import_module("svaport.trojan")
toy = parse_design(TOY_RTL)
# one search through each module that imports search_stimulus
assert translate.generate_testcase(parse_assertions(TOY_SVA)[0], toy)[0]
spec = trojan.TrojanSpec("toy_t00", "toy", "combinational",
                         (trojan.TriggerCond("en_i", None, 1),), 1,
                         "invert_net", "sum_o")
trojan.activation_stimulus(spec, toy, 4)
counts = tracer.counts
assert counts["search.search_stimulus.calls"] == 2, counts
assert counts["search.accepted"] == 2, counts
assert counts["search.exact_checks"] >= 2, counts
# evaluate's replay: one traced run and one traced check per assertion
from svaport.monitor import check_assertions
from svaport.sim import Stimulus, simulate
before = counts.copy()
assertions = parse_assertions(TOY_SVA)
stim = Stimulus.for_design(toy, [{"a_i": 3, "en_i": 1}, {}, {"b_i": 5}])
check_assertions(simulate(toy, stim), assertions)
ran = counts["sim.run.cycles"] - before["sim.run.cycles"]
assert ran == stim.cycles, counts
checked = (counts["monitor.check_assertion.calls"]
           - before["monitor.check_assertion.calls"])
assert checked == len(assertions), counts
"""


def test_tracer_installs_and_counts_both_searches():
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
