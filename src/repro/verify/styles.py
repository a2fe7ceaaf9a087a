"""The wrapper-style registry.

Every wrapper style the differential oracle can exercise is one
:class:`StyleSpec`: a name, its shell builder, its traffic
eligibility, the style it must match cycle-for-cycle (if any), and
whether it needs an RTL simulation engine or a planned static
activation.  The registry replaces what used to be an ``if``-chain in
``repro.verify.cases`` plus hand-maintained ``*_STYLES`` /
``CYCLE_EXACT_PAIRS`` constants: adding a wrapper style is now one
:func:`register_style` call, and every consumer — the style-set
defaults per traffic regime, the cycle-exact oracle, the perturbation
oracle's ``--perturb-styles all`` mode, ``repro verify
--list-styles`` — picks it up from here.

The derived constants at the bottom (``DEFAULT_STYLES`` and friends)
are computed from the registry at import time and keep their
historical names and ordering, so existing callers and reproducer
JSON stay valid.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Hashable

from ..core.compiler import CompilerOptions, compile_schedule
from ..core.equivalence import RTLShell
from ..core.rtlgen import (
    generate_fsm_wrapper,
    generate_shiftreg_wrapper,
    generate_sp_wrapper,
)
from ..core.wrappers import (
    CombinationalWrapper,
    FSMWrapper,
    ShiftRegisterWrapper,
    SPWrapper,
)
from ..lis.shell import Shell

if TYPE_CHECKING:
    from ..lis.pearl import Pearl
    from ..sched.generate import ProcessNode
    from .regular import StaticActivation

#: Traffic regimes a style may be eligible for ("any" or "regular").
STYLE_TRAFFIC = ("any", "regular")

#: Style kinds: behavioural shells vs RTL-in-the-loop shells.
STYLE_KINDS = ("behavioural", "rtl")


@dataclass(frozen=True)
class StyleSpec:
    """One wrapper style the oracle knows how to build and judge.

    * ``name`` — the style's CLI/JSON identifier;
    * ``kind`` — ``"behavioural"`` (pure Python shell) or ``"rtl"``
      (generated module simulated in the loop via ``RTLShell``);
    * ``traffic`` — ``"any"`` (every batch) or ``"regular"``
      (eligible only for regular-traffic cases, the shift-register
      environment hypothesis);
    * ``cycle_exact_reference`` — the style whose per-cycle enable
      trace this one must reproduce exactly, or ``None``;
    * ``needs_activation`` — the builder requires a planned static
      activation (:mod:`repro.verify.regular`);
    * ``uses_engine`` — the builder honours the RTL engine selection
      (``compiled``/``interp``);
    * ``builder`` — ``(pearl, node, port_depth, engine, activation)
      -> Shell``.
    """

    name: str
    kind: str
    traffic: str
    cycle_exact_reference: str | None
    needs_activation: bool
    uses_engine: bool
    builder: Callable[..., Shell]

    def __post_init__(self) -> None:
        if self.kind not in STYLE_KINDS:
            raise ValueError(f"unknown style kind {self.kind!r}")
        if self.traffic not in STYLE_TRAFFIC:
            raise ValueError(
                f"unknown style traffic eligibility {self.traffic!r}"
            )

    def eligible(self, traffic: str) -> bool:
        """True when the style joins batches of ``traffic`` regime."""
        return self.traffic == "any" or self.traffic == traffic

    def build(
        self,
        pearl: "Pearl",
        node: "ProcessNode",
        port_depth: int,
        engine: str | None = None,
        activation: "StaticActivation | None" = None,
    ) -> Shell:
        """Instantiate this style's shell around ``pearl``."""
        if self.needs_activation and activation is None:
            raise ValueError(
                f"style {self.name!r} needs a planned static "
                "activation; compute one with "
                "repro.verify.regular.plan_topology_activations"
            )
        return self.builder(pearl, node, port_depth, engine, activation)


_REGISTRY: dict[str, StyleSpec] = {}


def register_style(spec: StyleSpec) -> StyleSpec:
    """Add one style to the registry (rejects duplicate names and
    dangling cycle-exact references)."""
    if spec.name in _REGISTRY:
        raise ValueError(f"style {spec.name!r} already registered")
    reference = spec.cycle_exact_reference
    if reference is not None and reference not in _REGISTRY:
        raise ValueError(
            f"style {spec.name!r} references unregistered "
            f"cycle-exact style {reference!r}"
        )
    _REGISTRY[spec.name] = spec
    return spec


def get_style(name: str) -> StyleSpec:
    """Look one style up; raises :class:`ValueError` with the full
    style list for unknown names."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown verify style {name!r}; choose from "
            f"{sorted(_REGISTRY)}"
        ) from None


def style_specs() -> tuple[StyleSpec, ...]:
    """Every registered style, in registration order."""
    return tuple(_REGISTRY.values())


def registered_styles() -> tuple[str, ...]:
    """Every registered style name, in registration order."""
    return tuple(_REGISTRY)


def styles_for_traffic(traffic: str) -> tuple[str, ...]:
    """The default style set for a traffic regime: every registered
    style eligible for it, in registration order (regular traffic
    additionally exercises both shift-register styles)."""
    return tuple(
        spec.name
        for spec in _REGISTRY.values()
        if spec.eligible(traffic)
    )


def cycle_exact_pairs(
    styles: tuple[str, ...] | None = None,
) -> tuple[tuple[str, str], ...]:
    """(reference style, checked style) pairs that implement the same
    firing policy and must match cycle-for-cycle, restricted to
    ``styles`` when given."""
    return tuple(
        (spec.cycle_exact_reference, spec.name)
        for spec in _REGISTRY.values()
        if spec.cycle_exact_reference is not None
        and (
            styles is None
            or (
                spec.name in styles
                and spec.cycle_exact_reference in styles
            )
        )
    )


def format_style_registry() -> str:
    """The registry as a text table (``repro verify --list-styles``)."""
    header = (
        f"{'style':<14} {'kind':<12} {'traffic':<8} "
        f"{'cycle-exact vs':<15} {'rtl engine':<10} activation"
    )
    lines = [
        f"verify style registry ({len(_REGISTRY)} styles):",
        f"  {header}",
        f"  {'-' * len(header)}",
    ]
    for spec in _REGISTRY.values():
        lines.append(
            f"  {spec.name:<14} {spec.kind:<12} {spec.traffic:<8} "
            f"{spec.cycle_exact_reference or '-':<15} "
            f"{'yes' if spec.uses_engine else '-':<10} "
            f"{'planned' if spec.needs_activation else '-'}"
        )
    return "\n".join(lines)


# -- the styles ---------------------------------------------------------------


def _build_fsm(pearl, node, port_depth, engine, activation) -> Shell:
    return FSMWrapper(pearl, port_depth)


def _build_sp(pearl, node, port_depth, engine, activation) -> Shell:
    return SPWrapper(pearl, port_depth)


def _build_combinational(
    pearl, node, port_depth, engine, activation
) -> Shell:
    return CombinationalWrapper(pearl, port_depth)


# Generated wrapper RTL, memoized per schedule.  Processes, cases and
# perturbation variants repeat schedules, so most RTL builds can share
# one Module (with its SP program), which also hits compile_sim's per-Module
# plan memo and skips elaboration.  The key is the wrapper's structural
# inputs only: the module name is left out (no outcome, reproducer or
# error text reads it), so a memoized module keeps its generator's
# default name.  Shared modules are never mutated.

#: Cap on memoized wrapper modules per process; beyond it the least
#: recently used one is evicted.
WRAPPER_MEMO_MAX = 256

_WRAPPER_MEMO: OrderedDict[Hashable, Any] = OrderedDict()


def _memoized(key: Hashable, generate: Callable[[], Any]) -> Any:
    entry = _WRAPPER_MEMO.get(key)
    if entry is None:
        entry = _WRAPPER_MEMO[key] = generate()
        if len(_WRAPPER_MEMO) > WRAPPER_MEMO_MAX:
            _WRAPPER_MEMO.popitem(last=False)
    else:
        _WRAPPER_MEMO.move_to_end(key)
    return entry


def _schedule_key(schedule) -> tuple:
    return (schedule.inputs, schedule.outputs, schedule.points)


def _sp_rtl(schedule) -> tuple:
    # fuse=False keeps op.point_index aligned with the pearl's own
    # schedule, exactly as the behavioural SPWrapper compiles it.
    program = compile_schedule(schedule, CompilerOptions(fuse=False))
    return program, generate_sp_wrapper(program, schedule=schedule)


def _build_rtl_sp(pearl, node, port_depth, engine, activation) -> Shell:
    schedule = node.schedule
    program, module = _memoized(
        ("rtl-sp", _schedule_key(schedule)), lambda: _sp_rtl(schedule)
    )
    return RTLShell(
        pearl, module, program=program, port_depth=port_depth,
        engine=engine,
    )


def _build_rtl_fsm(pearl, node, port_depth, engine, activation) -> Shell:
    schedule = node.schedule
    module = _memoized(
        ("rtl-fsm", _schedule_key(schedule)),
        lambda: generate_fsm_wrapper(schedule),
    )
    return RTLShell(pearl, module, port_depth=port_depth, engine=engine)


def _build_shiftreg(
    pearl, node, port_depth, engine, activation
) -> Shell:
    return ShiftRegisterWrapper(
        pearl,
        port_depth,
        pattern=list(activation.pattern),
        prefix=activation.prefix,
    )


def _build_rtl_shiftreg(
    pearl, node, port_depth, engine, activation
) -> Shell:
    schedule = node.schedule
    pattern = tuple(activation.pattern)
    prefix = tuple(activation.prefix)
    module = _memoized(
        ("rtl-shiftreg", _schedule_key(schedule), pattern, prefix),
        lambda: generate_shiftreg_wrapper(
            schedule, activation=pattern, prefix=prefix
        ),
    )
    return RTLShell(pearl, module, port_depth=port_depth, engine=engine)


register_style(StyleSpec(
    name="fsm",
    kind="behavioural",
    traffic="any",
    cycle_exact_reference=None,
    needs_activation=False,
    uses_engine=False,
    builder=_build_fsm,
))
register_style(StyleSpec(
    name="sp",
    kind="behavioural",
    traffic="any",
    cycle_exact_reference=None,
    needs_activation=False,
    uses_engine=False,
    builder=_build_sp,
))
register_style(StyleSpec(
    name="combinational",
    kind="behavioural",
    traffic="any",
    cycle_exact_reference=None,
    needs_activation=False,
    uses_engine=False,
    builder=_build_combinational,
))
register_style(StyleSpec(
    name="rtl-sp",
    kind="rtl",
    traffic="any",
    cycle_exact_reference="sp",
    needs_activation=False,
    uses_engine=True,
    builder=_build_rtl_sp,
))
register_style(StyleSpec(
    name="rtl-fsm",
    kind="rtl",
    traffic="any",
    cycle_exact_reference="fsm",
    needs_activation=False,
    uses_engine=True,
    builder=_build_rtl_fsm,
))
# Shift-register styles: their static activation is planned from the
# FSM reference run (:mod:`repro.verify.regular`), so they only join
# the oracle for regular-traffic cases where that plan is the paper's
# periodic ring.
register_style(StyleSpec(
    name="shiftreg",
    kind="behavioural",
    traffic="regular",
    cycle_exact_reference="fsm",
    needs_activation=True,
    uses_engine=False,
    builder=_build_shiftreg,
))
register_style(StyleSpec(
    name="rtl-shiftreg",
    kind="rtl",
    traffic="regular",
    cycle_exact_reference="shiftreg",
    needs_activation=True,
    uses_engine=True,
    builder=_build_rtl_shiftreg,
))


# -- derived constants (historical names, registry-computed) ------------------

#: Behavioural styles eligible for every traffic regime.
BEHAVIOURAL_STYLES = tuple(
    spec.name
    for spec in _REGISTRY.values()
    if spec.kind == "behavioural" and spec.traffic == "any"
)

#: RTL-in-the-loop styles eligible for every traffic regime.
RTL_STYLES = tuple(
    spec.name
    for spec in _REGISTRY.values()
    if spec.kind == "rtl" and spec.traffic == "any"
)

#: Default style set for random-traffic cases.
DEFAULT_STYLES = styles_for_traffic("random")

#: Shift-register wrapper styles (behavioural and RTL-in-the-loop);
#: both need a planned static activation.
SHIFTREG_STYLES = tuple(
    spec.name for spec in _REGISTRY.values() if spec.needs_activation
)

#: Style set for regular-traffic cases: every random-traffic style
#: plus both shift-register styles.
REGULAR_STYLES = styles_for_traffic("regular")

#: Every style the oracle knows; regular traffic exercises them all.
ALL_STYLES = registered_styles()

#: (reference style, checked style) pairs that must match
#: cycle-for-cycle, derived from each spec's ``cycle_exact_reference``.
CYCLE_EXACT_PAIRS = cycle_exact_pairs()
