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
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import expr as ex
from .errors import (ActivationNotFoundError, ConfigError,
                     InsufficientSignalsError, PayloadConflictError)
from .graph import build_graph
from .monitor import check_assertions, check_batch
from .netlist import Assign, Netlist, NetKind, Register, combinational_closure
from .rng import substream
from .search import SearchBudget, input_cone, search_stimulus, take_rows
from .sim import BatchExpr, SimKernel, Stimulus
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

    def bits_constrained(self, netlist: Netlist) -> int:
        return 1 if self.bit is not None else netlist.width(self.signal)


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
    meta: dict = field(default_factory=dict)

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
        try:
            trigger = tuple(
                TriggerCond(row["signal"], row.get("bit"), row["value"])
                for row in data["trigger"])
            payload = data["payload"]
            return TrojanSpec(
                id=data["id"],
                module=data["module"],
                module_kind=data["module_kind"],
                trigger=trigger,
                k=data["k"],
                payload_kind=payload["kind"],
                payload_net=payload["net"],
                payload_value=payload.get("value"),
                meta=data.get("meta", {}),
            )
        except KeyError as err:
            raise ConfigError(f"trojan record is missing field {err}") from err


def save_trojans(specs: list[TrojanSpec], path: str | Path) -> None:
    Path(path).write_text(
        json.dumps([s.to_dict() for s in specs], indent=2) + "\n")


def load_trojans(path: str | Path) -> list[TrojanSpec]:
    """Read one spec or an array of specs (the import path for externally
    authored trojans)."""
    data = json.loads(Path(path).read_text())
    rows = data if isinstance(data, list) else [data]
    return [TrojanSpec.from_dict(row) for row in rows]


def validate_spec(spec: TrojanSpec, netlist: Netlist) -> None:
    if spec.module != netlist.name:
        raise ConfigError(
            f"trojan {spec.id} is for module {spec.module}, not {netlist.name}")
    if spec.payload_kind not in PAYLOAD_KINDS:
        raise ConfigError(f"unknown payload kind {spec.payload_kind}")
    if not spec.trigger:
        raise ConfigError(f"trojan {spec.id} has an empty trigger")
    seen: set[tuple[str, int | None]] = set()
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
        if (c.signal, c.bit) in seen:
            raise ConfigError(f"duplicate trigger condition on {c.signal}")
        seen.add((c.signal, c.bit))
    k = sum(c.bits_constrained(netlist) for c in spec.trigger)
    if spec.k != k or k < 1:
        raise ConfigError(
            f"trojan {spec.id}: k={spec.k} but trigger constrains {k} bits")
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
    if name not in netlist.nets:
        raise PayloadConflictError(
            f"payload target {name} is not a net of {netlist.name}")
    driver = netlist.driver_of(name)
    if driver is None:
        kind = netlist.nets[name].kind
        raise PayloadConflictError(
            f"payload target {name} has no rewritable driver ({kind.value}); "
            "rewriting it would add a second driver or drive an input")
    trig = trigger_expr(spec, netlist)
    width = netlist.width(name)

    out = Netlist(
        name=netlist.name,
        ports=netlist.ports,
        nets=dict(netlist.nets),
        params=dict(netlist.params),
        assigns=list(netlist.assigns),
        registers=list(netlist.registers),
    )
    if isinstance(driver, Assign):
        idx = out.assigns.index(driver)
        out.assigns[idx] = Assign(name, _corrupted(
            spec.payload_kind, driver.rhs, trig, width, spec.payload_value))
    else:
        assert isinstance(driver, Register)
        idx = out.registers.index(driver)
        out.registers[idx] = replace(driver, next=_corrupted(
            spec.payload_kind, driver.next, trig, width, spec.payload_value))
    combinational_closure(out)  # surfaces any loop the trigger closed
    return out


# --------------------------------------------------------------------------
# forging

@dataclass
class ForgeParams:
    """Generation knobs.  ``k_values``, when given, fixes the trigger width
    of each trojan in order (its length must equal ``count``); otherwise
    widths cycle through k_min..k_max."""

    count: int = 1
    k_min: int = 2
    k_max: int = 6
    k_values: tuple[int, ...] | None = None
    payloads: tuple[str, ...] = PAYLOAD_KINDS
    seed: int = 0
    tries: int = 64
    horizon: int = 16
    unique_failure: bool = True

    def budget(self) -> SearchBudget:
        return SearchBudget(horizon=self.horizon)


def _trigger_pool(netlist: Netlist, assertions: list[Assertion]) -> list[tuple[str, int]]:
    """Candidate (input, bit) pairs inside the assertions' fan-in cones.
    Clock and reset nets never qualify: triggers must be reachable while
    the design is running normally."""
    graph = build_graph(netlist)
    watched: set[str] = set()
    for a in assertions:
        watched |= {s for s in signals_of(a) if s in netlist.nets}
    cone = input_cone(netlist, graph, watched)
    off_limits = netlist.clock_nets() | netlist.reset_nets()
    pool = [(name, bit)
            for name in cone if name not in off_limits
            for bit in range(netlist.width(name))]
    return pool


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
          params: ForgeParams) -> list[TrojanSpec]:
    """Generate ``params.count`` proven-activatable trojans.

    Trojan *j* targets assertion ``j % len(assertions)`` and corrupts a net
    that assertion checks.  Candidates are sampled from a seeded stream and
    accepted only when an activation stimulus exists (see module docstring
    for the objective), so the result is deterministic for a given seed.
    """
    if not assertions:
        raise InsufficientSignalsError("cannot forge without assertions")
    pool = _trigger_pool(netlist, assertions)
    if params.k_values is not None and len(params.k_values) != params.count:
        raise ConfigError("k_values length must equal count")
    k_span = list(range(params.k_min, params.k_max + 1))
    module_kind = "sequential" if netlist.registers else "combinational"
    kernel = SimKernel(netlist)

    specs: list[TrojanSpec] = []
    for j in range(params.count):
        k = (params.k_values[j] if params.k_values is not None
             else k_span[j % len(k_span)])
        if len(pool) < k:
            raise InsufficientSignalsError(
                f"assertion cone offers {len(pool)} trigger bits, "
                f"but trojan {j} needs k={k}")
        target = assertions[j % len(assertions)]
        nets = _payload_candidates(netlist, target)
        if not nets:
            raise InsufficientSignalsError(
                f"assertion {target.effective_name()} checks no driven net")
        rng = substream(params.seed, "forge", netlist.name, j)
        spec = None
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
                meta={"target_assertion": target.effective_name(),
                      "seed": params.seed},
            )
            stim = _find_activation(
                cand, netlist, assertions, target, params.budget(),
                substream(params.seed, "forge", netlist.name, j, attempt),
                unique_failure=params.unique_failure, kernel=kernel)
            if stim is not None:
                cand.meta["activation"] = stim.inputs
                spec = cand
                break
        if spec is None:
            raise ActivationNotFoundError(
                f"no viable trojan {j} for {netlist.name} after "
                f"{params.tries} attempts", tried=params.tries)
        specs.append(spec)
    return specs


# --------------------------------------------------------------------------
# activation

def _observables(netlist: Netlist, spec: TrojanSpec,
                 assertions: list[Assertion] | None) -> list[str]:
    names = {n.name for n in netlist.nets.values() if n.kind is NetKind.OUTPUT}
    names.add(spec.payload_net)
    for a in assertions or []:
        names |= {s for s in signals_of(a) if s in netlist.nets}
    return sorted(names)


def _find_activation(spec: TrojanSpec, netlist: Netlist,
                     assertions: list[Assertion] | None,
                     target: Assertion | None,
                     budget: SearchBudget,
                     rng: np.random.Generator,
                     *, unique_failure: bool = False,
                     kernel: SimKernel | None = None) -> Stimulus | None:
    """Search for a stimulus satisfying the activation objective.

    Always required: the trigger fires and the corrupted design's trace
    differs from the clean one on an observable net.  When *target* is
    given its assertion must fail on the corrupted design and hold on the
    clean one; with *unique_failure* no other supplied assertion may fail.

    The batch mask is the objective: each batch is screened by the trigger
    and the target's first antecedent term (both necessary), the clean
    design is co-simulated on the rows that pass, and the assertions are
    checked with arrays over the whole batch, so every row that meets the
    objective is returned.  ``accept`` re-runs the first of them on both
    compiled kernels only to confirm.
    """
    injected = inject(netlist, spec)
    inj_kernel = SimKernel(injected)
    kernel = kernel or SimKernel(netlist)
    params = {name: p.value for name, p in netlist.params.items()}
    trig = BatchExpr(trigger_expr(spec, netlist), injected.width, params)
    widths = {name: net.width for name, net in netlist.nets.items()}
    watch = _observables(netlist, spec, assertions)
    checked = assertions or [target]

    graph = build_graph(injected)
    trig_signals = {c.signal for c in spec.trigger}
    forced = {(c.signal, c.bit): c.value for c in spec.trigger
              if c.bit is not None
              and netlist.nets[c.signal].kind is NetKind.INPUT}

    # the first-term antecedent is batchable and a cheap necessary condition
    ante_term = (BatchExpr(target.antecedent.steps[0][1], injected.width,
                           params) if target is not None else None)

    def fails(a: Assertion, values: dict[str, np.ndarray]) -> np.ndarray:
        return check_batch(a, values, widths, params, netlist.name).failed

    def objective(arrays: dict[str, np.ndarray],
                  inputs: dict[str, np.ndarray]) -> np.ndarray:
        screen = (trig(arrays) != 0).any(axis=1)
        if ante_term is not None:
            screen &= (ante_term(arrays) != 0).any(axis=1)
        rows = np.flatnonzero(screen)
        if not rows.size:
            return rows
        cycles = next(iter(arrays.values())).shape[1]
        clean = kernel.run_batch(take_rows(inputs, rows), cycles)
        ok = np.zeros(rows.size, dtype=bool)
        for n in watch:
            ok |= (arrays[n][rows] != clean[n]).any(axis=1)
        if target is None or not ok.any():
            return rows[ok]
        # the dirty arrays are checked whole and the clean ones hold only
        # the screened rows, so every verdict is indexed by row, not copied
        ok &= ~fails(target, clean)
        ok &= fails(target, arrays)[rows]
        if unique_failure:
            for a in checked:
                if a.effective_name() != target.effective_name() and ok.any():
                    ok &= ~fails(a, arrays)[rows]
        return rows[ok]

    def accept(stim: Stimulus) -> bool:
        dirty = inj_kernel.run(stim)
        if not (trig(dirty.arrays(trig.nets)) != 0).any():
            return False
        clean = kernel.run(stim)
        if all(clean.value(n, t) == dirty.value(n, t)
               for n in watch for t in range(clean.cycles)):
            return False
        if target is not None:
            verdicts = check_assertions(dirty, checked)
            by_name = {v.name: v for v in verdicts}
            if not by_name[target.effective_name()].failed:
                return False
            if unique_failure and any(
                    v.failed for v in verdicts
                    if v.name != target.effective_name()):
                return False
            clean_verdicts = check_assertions(clean, [target])
            if clean_verdicts[0].failed:
                return False
        return True

    # enumerate the inputs that steer the objective (trigger plus the
    # target's antecedent) before falling back to everything the
    # observables depend on; consequent-only inputs can ride the defaults
    steer = set(trig_signals)
    if target is not None:
        for term in target.antecedent.terms():
            steer |= {s for s in ex.idents_of(term) if s in injected.nets}
    narrow = input_cone(injected, graph, steer)
    wide = sorted(set(narrow) | set(input_cone(injected, graph, set(watch))))
    for relevant in ([narrow, wide] if narrow != wide else [wide]):
        stim, _stats = search_stimulus(injected, relevant, forced, objective,
                                       accept, rng, budget, kernel=inj_kernel)
        if stim is not None:
            return stim
    return None


def activation_stimulus(spec: TrojanSpec, netlist: Netlist,
                        horizon: int = 16, *,
                        assertions: list[Assertion] | None = None,
                        seed: int = 0,
                        budget: SearchBudget | None = None) -> Stimulus:
    """Find inputs that fire the trigger and make the corruption visible.

    Exhaustive over the relevant input bits when they fit the budget,
    otherwise a seeded random sweep; deterministic either way.
    """
    budget = budget or SearchBudget(horizon=horizon)
    rng = substream(seed, "activate", spec.module, spec.id)
    stim = _find_activation(spec, netlist, assertions, None, budget, rng)
    if stim is None:
        raise ActivationNotFoundError(
            f"no activating stimulus for {spec.id} within budget "
            f"(horizon {budget.horizon})")
    return stim
