"""Rule-based hardware trojan generation, injection, and activation.

A trojan here is a conjunctive trigger over specific signal bits plus a
payload that corrupts one driven net while the trigger holds.  The
generator draws trigger bits from the fan-in cones of the signals the
supplied assertions watch, so every trojan lands in logic the assertions
are responsible for, and every candidate is proven out by simulation
before it is emitted: there must exist a stimulus under which the trigger
fires, the corrupted design visibly diverges from the clean one, the
targeted assertion fails, and no other supplied assertion does.

Injection never touches the module interface: the payload is an inline
rewrite of the target net's existing driver, guarded by the trigger
condition, so an untriggered trojan is behaviorally invisible.

A candidate whose every schedule ``search.ruled_out`` excludes, or that
``_hopeless`` proves can never fail its target, is skipped unsearched.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import expr as ex
from .errors import (ActivationNotFoundError, ConfigError,
                     InsufficientSignalsError, PayloadConflictError)
from .graph import build_graph
from .monitor import Checker
from .netlist import Assign, Netlist, NetKind, Register
from .records import field, read_json, record
from .rng import substream
from .search import (input_cone, necessary_literals, ruled_out, schedules,
                     search_stimulus)
from .sim import SimKernel, Stimulus, fanin_cone
from .sva import Assertion, signals_of

PAYLOAD_KINDS = ("invert_net", "force_constant", "xor_into_assign")


# --------------------------------------------------------------------------
# trojan description

@dataclass(frozen=True)
class TriggerCond:
    """One conjunct of a trigger: a single bit, or a whole signal, must
    equal *value*.  ``bit`` is None for whole-signal equality."""

    signal: str
    bit: int | None
    value: int

    def bits(self, netlist: Netlist) -> dict[tuple[str, int], int]:
        """The bits the condition constrains, each with its value:
        (signal, bit) -> 0 or 1."""
        if self.bit is not None:
            return {(self.signal, self.bit): self.value}
        return {(self.signal, b): self.value >> b & 1
                for b in range(netlist.width(self.signal))}


@dataclass
class TrojanSpec:
    """Everything needed to reproduce one trojan."""

    id: str
    module: str
    module_kind: str              # "combinational" | "sequential"
    trigger: tuple[TriggerCond, ...]
    k: int
    payload_kind: str
    payload_net: str
    payload_value: int | None = None   # force_constant only
    meta: dict = dataclasses.field(default_factory=dict)

    def to_dict(self) -> dict:
        payload: dict = {"kind": self.payload_kind, "net": self.payload_net}
        if self.payload_value is not None:
            payload["value"] = self.payload_value
        return {
            "id": self.id,
            "module": self.module,
            "module_kind": self.module_kind,
            "k": self.k,
            "trigger": [{"signal": c.signal, "bit": c.bit, "value": c.value}
                        for c in self.trigger],
            "payload": payload,
            "meta": self.meta,
        }

    @staticmethod
    def from_dict(data: dict) -> "TrojanSpec":
        # meta is only checked to be an object: imported specs may carry
        # long activations there, which inject checks against the design
        where, entry = "trojan record", "trigger entry"
        payload = field(record(data, where), "payload", dict, where)
        return TrojanSpec(
            id=field(data, "id", str, where),
            module=field(data, "module", str, where),
            module_kind=field(data, "module_kind", str, where),
            trigger=tuple(
                TriggerCond(field(record(row, entry), "signal", str, entry),
                            field(row, "bit", int, entry, default=None),
                            field(row, "value", int, entry))
                for row in field(data, "trigger", list, where)),
            k=field(data, "k", int, where),
            payload_kind=field(payload, "kind", str, "payload"),
            payload_net=field(payload, "net", str, "payload"),
            payload_value=field(payload, "value", int, "payload", default=None),
            meta=field(data, "meta", dict, where, default=None) or {},
        )


def load_trojans(path: str | Path) -> list[TrojanSpec]:
    """Read one spec or an array of specs (the import path for externally
    authored trojans)."""
    data = read_json(path)
    rows = data if type(data) is list else [data]
    return [TrojanSpec.from_dict(row) for row in rows]


def validate_spec(spec: TrojanSpec, netlist: Netlist) -> None:
    if spec.module != netlist.name:
        raise ConfigError(
            f"trojan {spec.id} is for module {spec.module}, not {netlist.name}")
    if spec.payload_kind not in PAYLOAD_KINDS:
        raise ConfigError(f"unknown payload kind {spec.payload_kind}")
    if not spec.trigger:
        raise ConfigError(f"trojan {spec.id} has an empty trigger")
    # one bit may be constrained once, or k and the trigger's probability
    # would count it twice
    taken: dict[tuple[str, int], int] = {}
    for c in spec.trigger:
        if c.signal not in netlist.nets:
            raise ConfigError(
                f"trigger signal {c.signal} is not a net of {netlist.name}")
        w = netlist.width(c.signal)
        if c.bit is not None and not 0 <= c.bit < w:
            raise ConfigError(f"trigger bit {c.signal}[{c.bit}] out of range")
        limit = 2 if c.bit is not None else (1 << w)
        if not 0 <= c.value < limit:
            raise ConfigError(f"trigger value for {c.signal} out of range")
        bits = c.bits(netlist)
        if bits.keys() & taken.keys():
            raise ConfigError(f"duplicate trigger condition on {c.signal}: "
                              "a bit is constrained twice")
        taken |= bits
    k = len(taken)
    if spec.k != k or k < 1:
        raise ConfigError(
            f"trojan {spec.id}: k={spec.k} but trigger constrains {k} bits")
    if spec.payload_net not in netlist.nets:
        raise PayloadConflictError(
            f"payload target {spec.payload_net} is not a net of {netlist.name}")
    if spec.payload_kind == "force_constant":
        if spec.payload_value is None:
            raise ConfigError(f"trojan {spec.id}: force_constant needs a value")
        if not 0 <= spec.payload_value < (1 << netlist.width(spec.payload_net)):
            raise ConfigError(f"trojan {spec.id}: payload value out of range")


def trigger_expr(spec: TrojanSpec, netlist: Netlist) -> ex.Expr:
    """The trigger cube as a boolean expression over netlist signals."""
    conds: list[ex.Expr] = []
    for c in sorted(spec.trigger, key=lambda c: (c.signal, c.bit or 0)):
        if c.bit is None or netlist.width(c.signal) == 1:
            base: ex.Expr = ex.Ident(c.signal)
        else:
            base = ex.Select(c.signal, c.bit, c.bit)
        w = 1 if c.bit is not None else netlist.width(c.signal)
        conds.append(ex.Binary("==", base, ex.Const(c.value, w)))
    return ex.conjoin(conds)


# --------------------------------------------------------------------------
# injection

def _corrupted(kind: str, orig: ex.Expr, trig: ex.Expr, width: int,
               value: int | None) -> ex.Expr:
    if kind == "invert_net":
        inverted: ex.Expr = ex.Unary("~", orig)
        return ex.Ternary(trig, inverted, orig)
    if kind == "force_constant":
        assert value is not None
        return ex.Ternary(trig, ex.Const(value, width), orig)
    if kind == "xor_into_assign":
        return ex.Binary("^", orig, trig)
    raise ConfigError(f"unknown payload kind {kind}")


def inject(netlist: Netlist, spec: TrojanSpec) -> Netlist:
    """Return a new netlist with the payload spliced into the target net's
    driver.  The original netlist is left untouched; ports, widths, and the
    module name carry over unchanged."""
    validate_spec(spec, netlist)
    name = spec.payload_net
    driver = netlist.driver_of(name)
    if driver is None:
        kind = netlist.nets[name].kind
        raise PayloadConflictError(
            f"payload target {name} has no rewritable driver ({kind.value}); "
            "rewriting it would add a second driver or drive an input")
    trig = trigger_expr(spec, netlist)
    width = netlist.width(name)

    out = replace(netlist, nets=dict(netlist.nets),
                  params=dict(netlist.params), assigns=list(netlist.assigns),
                  registers=list(netlist.registers))
    if isinstance(driver, Assign):
        idx = out.assigns.index(driver)
        out.assigns[idx] = Assign(name, _corrupted(
            spec.payload_kind, driver.rhs, trig, width, spec.payload_value))
    else:
        assert isinstance(driver, Register)
        idx = out.registers.index(driver)
        out.registers[idx] = replace(driver, next=_corrupted(
            spec.payload_kind, driver.next, trig, width, spec.payload_value))
    out.assign_order  # ordered now, so a loop the trigger closed raises here
    return out


# --------------------------------------------------------------------------
# forging

@dataclass(frozen=True)
class ForgeParams:
    """Forge's knobs, declared and checked here alone: the campaign
    config's ``forge`` section parses into one, and inject fills in each
    module's ``count``, ``k_values``, ``seed`` and ``horizon``.
    ``k_values``, when given, fixes the trigger width of each trojan in
    order (its length must equal ``count``); otherwise widths cycle
    through k_min..k_max.  Knobs forge cannot run with raise
    ``ConfigError`` on construction, in the words of the config's
    ``forge`` section."""

    count: int = 1
    k_min: int = 2
    k_max: int = 6
    k_values: tuple[int, ...] | None = None
    payloads: tuple[str, ...] = PAYLOAD_KINDS
    seed: int = 0
    tries: int = 64
    horizon: int = 16

    def __post_init__(self) -> None:
        for kind in self.payloads:
            if kind not in PAYLOAD_KINDS:
                raise ConfigError(f"forge: unknown payload kind {kind!r}")
        if not self.payloads:
            raise ConfigError("forge: payloads must name at least one kind")
        if not 1 <= self.k_min <= self.k_max:
            raise ConfigError("forge: need 1 <= k_min <= k_max, got "
                              f"[{self.k_min}, {self.k_max}]")
        if self.tries < 1:
            raise ConfigError("forge: tries must be positive")
        if self.k_values is not None and len(self.k_values) != self.count:
            raise ConfigError("k_values length must equal count")


def _trigger_pool(netlist: Netlist, assertions: list[Assertion]) -> list[tuple[str, int]]:
    """Candidate (input, bit) pairs inside the assertions' fan-in cones.
    Clock and reset nets never qualify: triggers must be reachable while
    the design is running normally."""
    watched = set().union(*(signals_of(a) for a in assertions))
    off_limits = netlist.control_nets()
    return [(name, bit)
            for name in input_cone(netlist, build_graph(netlist), watched)
            if name not in off_limits
            for bit in range(netlist.width(name))]


def _payload_candidates(netlist: Netlist, a: Assertion) -> list[str]:
    """Driven nets the assertion checks, the consequent first: corrupting
    one of these is what the assertion exists to catch."""
    cons = set().union(*(ex.idents_of(t) for t in a.consequent.terms()))
    ante = set().union(*(ex.idents_of(t) for t in a.antecedent.terms()))
    driven = lambda n: n in netlist.nets and netlist.driver_of(n) is not None
    out = sorted(n for n in cons if driven(n))
    out += sorted(n for n in ante - cons if driven(n))
    return out


def forge(netlist: Netlist, assertions: list[Assertion],
          params: ForgeParams) -> list[tuple[TrojanSpec, Stimulus]]:
    """Generate ``params.count`` proven-activatable trojans, each with the
    stimulus that activates it.

    Trojan *j* targets assertion ``j % len(assertions)`` and corrupts a net
    that assertion checks.  Candidates are sampled from a seeded stream and
    accepted only when an activation stimulus exists (see module docstring
    for the objective), so the result is deterministic for a given seed.
    The clean design's kernel is built once, kept to the nets every
    attempt's objective reads: each payload net is a net of its target.
    Each attempt builds the corrupted design's kernel, and each distinct
    generated source compiles once (``sim``).  Each attempt's search runs
    every batch on both designs (see ``_find_activation``).
    """
    if not assertions:
        raise InsufficientSignalsError("cannot forge without assertions")
    pool = _trigger_pool(netlist, assertions)
    module_kind = "sequential" if netlist.registers else "combinational"
    # the injected designs keep the clean one's nets and constants, so one
    # checker per assertion decides clean and corrupted runs alike
    checkers = [Checker(a, netlist) for a in assertions]
    clean = SimKernel(netlist, keep=_outputs(netlist).union(
        *(c.nets for c in checkers)))

    forged: list[tuple[TrojanSpec, Stimulus]] = []
    for j in range(params.count):
        k = (params.k_values[j] if params.k_values is not None
             else params.k_min + j % (params.k_max - params.k_min + 1))
        if len(pool) < k:
            raise InsufficientSignalsError(
                f"assertion cone offers {len(pool)} trigger bits, "
                f"but trojan {j} needs k={k}")
        target = j % len(assertions)
        checked = assertions[target]
        nets = _payload_candidates(netlist, checked)
        if not nets:
            raise InsufficientSignalsError(
                f"assertion {checked.effective_name()} checks no driven net")
        rng = substream(params.seed, "forge", netlist.name, j)
        skipped: Counter[str] = Counter()
        for attempt in range(params.tries):
            picks = sorted(rng.choice(len(pool), size=k, replace=False))
            trigger = tuple(
                TriggerCond(pool[i][0], pool[i][1], int(rng.integers(0, 2)))
                for i in picks)
            payload_kind = params.payloads[attempt % len(params.payloads)]
            payload_net = nets[attempt % len(nets)]
            value = None
            if payload_kind == "force_constant":
                width = netlist.width(payload_net)
                value = int(rng.integers(0, 1 << min(width, 63)))
            cand = TrojanSpec(
                id=f"{netlist.name}_t{j:02d}",
                module=netlist.name,
                module_kind=module_kind,
                trigger=trigger,
                k=k,
                payload_kind=payload_kind,
                payload_net=payload_net,
                payload_value=value,
                meta={"target_assertion": checked.effective_name(),
                      "seed": params.seed},
            )
            stim = _find_activation(
                cand, netlist, checkers, target, params.horizon,
                substream(params.seed, "forge", netlist.name, j, attempt),
                skipped=skipped, clean=clean)
            if stim is not None:
                forged.append((cand, stim))
                break
        else:
            skips = "".join(f"; {n} skipped unsearched, since {why}"
                            for why, n in skipped.most_common())
            raise ActivationNotFoundError(
                f"no viable trojan {j} for {netlist.name} after "
                f"{params.tries} attempts{skips}", tried=params.tries)
    return forged


# --------------------------------------------------------------------------
# activation

def _outputs(netlist: Netlist) -> set[str]:
    return {n.name for n in netlist.nets.values() if n.kind is NetKind.OUTPUT}


def _find_activation(spec: TrojanSpec, netlist: Netlist,
                     checkers: list[Checker], target: int | None,
                     horizon: int, rng: np.random.Generator,
                     *, skipped: Counter[str] | None = None,
                     clean: SimKernel | None = None) -> Stimulus | None:
    """Search for a stimulus satisfying the activation objective.

    Always required: the corrupted design's trace differs from the clean
    one on an output, the payload net or a net of an assertion, which it
    can only in a run where the trigger fires.  When *target* is given,
    the assertion of ``checkers[target]`` must fail on the corrupted
    design and hold on the clean one, and no other checker may fail.

    Each batch runs on both designs, each kept to the nets the objective
    reads, and one rule, ``meets``, decides every row with arrays, since
    rows are independent in a batch run and in every checker: the first
    row it takes is the activation.  The clean design's kernel is *clean*
    when given, which must keep those nets (else ``ValueError``); if not
    given, it is built here.

    The search is one pass over every input the objective's nets depend
    on.  It forces the trigger's input bits, every bit of a condition on
    a whole input among them, and, with a *target*, the necessary
    literals of the target's first antecedent term
    (``search.necessary_literals``), the trigger's value winning where
    they clash; under a clash the warm-up flips the trigger's bits alone
    (``search.schedules`` says why).  With a *target*, it tries only the
    schedules ``ruled_out`` leaves for that term; an attempt with none
    left, or that ``_hopeless`` proves can never fail the target, returns
    None before any kernel is compiled, counting the reason in *skipped*.
    """
    injected = inject(netlist, spec)
    # a whole-input condition forces each of the input's bits
    trigger_bits = {
        bit: value for c in spec.trigger
        if netlist.nets[c.signal].kind is NetKind.INPUT
        for bit, value in c.bits(netlist).items()}
    forced, flips, need = trigger_bits, None, None
    # a target fails only where its first antecedent term holds
    goal = checkers[target] if target is not None else None
    if goal is not None:
        need = necessary_literals(goal.assertion.antecedent.steps[0][1],
                                  injected)
        if need:
            forced = need | trigger_bits  # the trigger wins a clash
            if any(forced[bit] != value for bit, value in need.items()):
                flips = trigger_bits  # only the warm-up can meet the term
    plans = schedules(injected, forced, horizon, flips)
    if goal is not None:
        whys = [ruled_out(need, plan, forced) for plan in plans]
        plans = [plan for plan, why in zip(plans, whys) if why is None]
        why = (_hopeless(spec, netlist, injected, goal) if plans else
               "no candidate meets the target's first antecedent term "
               f"({whys[0]})")
        if why is not None:
            if skipped is not None:
                skipped[why] += 1
            return None

    # the objective reads these nets of both designs; the clock among
    # them is an input, equal in both
    reads = (_outputs(netlist) | {spec.payload_net}).union(
        *(c.nets for c in checkers))
    if clean is None:
        clean = SimKernel(netlist, keep=reads)
    missing = reads - set(clean.net_order)
    if missing:
        raise ValueError(f"the clean kernel of {netlist.name} drops nets "
                         f"the objective reads: {sorted(missing)}")
    inj_kernel = SimKernel(injected, keep=reads)

    def meets(dirty: dict[str, np.ndarray],
              clean: dict[str, np.ndarray]) -> np.ndarray:
        """Which rows of the corrupted run meet the objective, given the
        clean run of the same rows."""
        ok = np.zeros(dirty[spec.payload_net].shape[0], dtype=bool)
        for n in reads:
            ok |= (dirty[n] != clean[n]).any(axis=1)
        if goal is None or not ok.any():
            return ok
        ok &= ~goal(clean).failed
        ok &= goal(dirty).failed
        for i, other in enumerate(checkers):
            if i != target and ok.any():
                ok &= ~other(dirty).failed
        return ok

    def accept(batch: dict[str, np.ndarray]) -> np.ndarray:
        return meets(inj_kernel.run_batch(batch, horizon),
                     clean.run_batch(batch, horizon))

    cone = input_cone(injected, build_graph(injected),
                      reads | {c.signal for c in spec.trigger})
    return search_stimulus(cone, forced, accept, rng, horizon, injected,
                           plans)[0]


def _hopeless(spec: TrojanSpec, netlist: Netlist, injected: Netlist,
              goal: Checker) -> str | None:
    """Why no candidate of an attempt's search can fail *goal*'s target
    on the *injected* design; None when one may.

    The target sees the payload only in the cycle its antecedent is
    sampled: it is ``ante |-> cons`` (one step each, no delay, no
    ``$past`` in them or in its disable expression), the payload net is
    driven by an ``assign``, and no register in the target's fan-in cone
    has the payload net in its own.  The two designs then agree on every
    net the target reads in each cycle the trigger does not fire, so the
    target can fail on the corrupted design alone only in a cycle where
    ``trigger && ante && !cons`` holds, and none does when its
    ``necessary_literals`` contradict each other.
    """
    a = goal.assertion
    steps = a.antecedent.steps + a.consequent.steps
    if (len(a.antecedent.steps) != 1 or len(steps) != 2
            or any(delay for delay, _ in steps)
            or not isinstance(injected.driver_of(spec.payload_net), Assign)):
        return None
    (_, ante), (_, cons) = steps
    reads = [ante, cons] + ([a.disable] if a.disable is not None else [])
    if any(isinstance(n, ex.Past) for e in reads for n in ex.walk(e)):
        return None
    cone = fanin_cone(injected, goal.nets)
    state = {r.target for r in injected.registers if r.target in cone}
    if spec.payload_net in fanin_cone(injected, state):
        return None
    fails = ex.conjoin([trigger_expr(spec, netlist), ante,
                        ex.Unary("!", cons)])
    if necessary_literals(fails, injected) is None:
        return ("the target sees the payload only in the cycle the trigger "
                "fires, and no cycle can fire the trigger and fail the target")
    return None


def activation_stimulus(spec: TrojanSpec, netlist: Netlist,
                        horizon: int = 16, *, seed: int = 0) -> Stimulus:
    """Find inputs that fire the trigger and make the corruption visible:
    forge's activation search, with no assertion to fail.  No search
    drives a clock or reset net, so a trigger that names one raises."""
    control = [c.signal for c in spec.trigger
               if c.signal in netlist.control_nets()]
    if control:
        raise ActivationNotFoundError(
            f"trojan {spec.id}: its trigger names the clock or reset net "
            f"{control[0]}, which no search drives; the spec needs its own "
            "meta.activation")
    rng = substream(seed, "activate", spec.module, spec.id)
    stim = _find_activation(spec, netlist, [], None, horizon, rng)
    if stim is None:
        raise ActivationNotFoundError(
            f"no activating stimulus for {spec.id} within budget "
            f"(horizon {horizon})")
    return stim
