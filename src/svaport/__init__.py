"""Port security assertions between RTL designs and stress them with
rule-generated hardware trojans.

The pipeline: parse a synthesizable-subset design into a :class:`Netlist`,
resolve each source assertion's signals against it (:func:`translate`),
forge rare-trigger trojans aimed at the translated assertions
(:func:`forge`/:func:`inject`), then check activation runs with assertions
compiled once per design (:class:`Checker`, :func:`check_assertions`) and
score detection and trigger rarity (:mod:`.metrics`).
The ``svaport`` console script drives the same stages from campaign JSON.
"""

from .errors import (ActivationNotFoundError, CombinationalLoopError,
                     ConeTooLargeError, ConfigError, DomainError,
                     ElaborationError, InsufficientSignalsError, ParseError,
                     PayloadConflictError, SourceError, SvaportError,
                     UnknownSignalError, UnsupportedConstructError)
from .graph import DependencyGraph, Relation, Relationship, build_graph, \
    classify, fanin
from .metrics import (MetricsReport, ModuleRow, MonteCarloEstimate, TrojanRow,
                      analytic_probability, brute_force_probability,
                      emit_report, monte_carlo_probability, tpi)
from .monitor import (AssertionVerdict, Checker, check_assertion,
                      check_assertions)
from .netlist import Netlist, render_netlist
from .rtl_parser import parse_design
from .sim import SimKernel, Stimulus, Trace, load_stimulus
from .sva import (Assertion, normalize_overlapped, parse_assertion,
                  parse_assertions, render_assertion, signals_of)
from .translate import (SignalMap, TranslationConfig, TranslationOutcome,
                        assertion_key, generate_testcase, translate)
from .trojan import (ForgeParams, TrojanSpec, activation_stimulus, forge,
                     inject, load_trojans, validate_spec)

__version__ = "0.1.0"
