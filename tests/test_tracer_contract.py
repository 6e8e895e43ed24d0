"""The benchmark's tracer still finds every name it wraps.

``perfbench/tracer.py`` replaces functions by name on the pipeline's
modules and binds ``search_stimulus``'s ``accept`` argument by name, so a
rename that it misses would break only traced benchmark runs.  Evaluate's
scoring of a trojan (``cli._evaluate_one``) must also reach
``SimKernel.run`` and ``check_assertion`` through the wrapped names, or
its cycle and check counts would read low.  Translate's witness search
is decided on its batches alone, so it adds no check to that count, but
``translate.check_assertion`` must stay importable for the tracer to
wrap.  Forge must still build its graph
through ``build_graph``, or that layer would read 0, and run every batch
through ``run_batch``, or ``sim.run_batch.row_cycles`` would read low.
The benchmark's own modules must import, and the names they reach
by attribute or keyword (``Stimulus(rows)``, ``Trace.values``,
``input_cone``, ``TranslationConfig.generate_testcase``,
``translate(..., graph=)``) must exist, so a deletion that breaks the
benchmark fails here too.  The wrappers stay for the life of a process,
so the check runs in a fresh one.
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
# one search through each module that imports search_stimulus; the
# witness is decided on its batches, with no check through translate's
# wrapped name
checks = tracer.counts["monitor.check_assertion.calls"]
assert translate.generate_testcase(parse_assertions(TOY_SVA)[0], toy)[0]
assert tracer.counts["monitor.check_assertion.calls"] == checks, \
    tracer.counts
spec = trojan.TrojanSpec("toy_t00", "toy", "combinational",
                         (trojan.TriggerCond("en_i", None, 1),), 1,
                         "invert_net", "sum_o")
trojan.activation_stimulus(spec, toy, 4)
counts = tracer.counts
assert counts["search.search_stimulus.calls"] == 2, counts
assert counts["search.accepted"] == 2, counts
assert counts["search.exact_checks"] >= 2, counts
# the forge path still builds its graph through the wrapped name, so the
# graph.build_graph layer does not silently read 0
assert counts["graph.build_graph.calls"] >= 1, counts
# evaluate scoring one trojan: one traced kernel, one traced run over the
# stimulus's cycles and one traced check per assertion
import tempfile
from pathlib import Path

from svaport import cli
from svaport.netlist import render_netlist
from svaport.sim import Stimulus, stimulus_text

def runs():
    return sum(1 for span in tracer.spans if span[0] == "sim.run")

before, runs_before = counts.copy(), runs()
assertions = parse_assertions(TOY_SVA)
stim = Stimulus.for_design(toy, [{"a_i": 3, "en_i": 1}, {}, {"b_i": 5}])
with tempfile.TemporaryDirectory() as tmp:
    sv_path = Path(tmp, "toy_t00.sv")
    stim_path = Path(tmp, "toy_t00.stim.json")
    sv_path.write_text(render_netlist(trojan.inject(toy, spec)))
    stim_path.write_text(stimulus_text(stim))
    detected, error = cli._evaluate_one(sv_path, stim_path, assertions)
assert error is None and detected, error
assert runs() == runs_before + 1, counts
delta = {key: counts[key] - before[key] for key in counts}
assert delta["sim.kernel_compiles"] == 1, delta
assert delta["sim.run.cycles"] == stim.cycles, delta
assert delta["monitor.check_assertion.calls"] == len(assertions), delta
# evaluate builds no graph (its kernel reads the map its parse built), so
# the layer still reads the forge path's builds
assert counts["graph.build_graph.calls"] >= 1, counts
# forging one toy trojan against a target: every batch goes through the
# wrapped run_batch, so its row-cycles count
from svaport.sim import SimKernel

batches = []
traced_run_batch = SimKernel.run_batch

def spy(self, inputs, cycles):
    out = traced_run_batch(self, inputs, cycles)
    rows, steps = next(iter(out.values())).shape
    batches.append(rows * steps)
    return out

SimKernel.run_batch = spy
before = counts["sim.run_batch.row_cycles"]
forged = trojan.forge(toy, assertions, trojan.ForgeParams(
    count=1, k_min=2, k_max=2, seed=6, horizon=4))
assert len(forged) == 1
assert counts["sim.run_batch.row_cycles"] - before == sum(batches), batches
# the benchmark's own modules import, and the names they reach by
# attribute or keyword still exist
import perfbench.checks
import perfbench.workloads
from svaport.graph import build_graph
from svaport.search import input_cone
from svaport.translate import SignalMap, TranslationConfig, translate

assert not TranslationConfig(generate_testcase=False).generate_testcase
a = parse_assertions(TOY_SVA)[0]
assert translate(a, toy, SignalMap(), TranslationConfig(),
                 graph=build_graph(toy)).translatable
rows = Stimulus(Stimulus.for_design(toy, [{"a_i": 3, "en_i": 1}]).inputs)
assert SimKernel(toy).run(rows).values["sum_o"] == [3]
assert input_cone(toy, build_graph(toy), {"sum_o"})
"""


def test_tracer_installs_and_counts_both_searches():
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
