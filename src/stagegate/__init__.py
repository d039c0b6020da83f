"""Stage-constrained workflow dispatch with auditable execution control.

The package enforces two gates in front of every skill execution: the
intent must be legal at the workflow's current stage, and the skill's
preconditions must hold in the goal's business context.  Every dispatch
appends one immutable audit event, and any goal's state can be rebuilt by
replaying its event log.
"""

from .automaton import (
    IntentId,
    StageId,
    WorkflowAutomaton,
    automaton_from_dict,
    validate_definition,
)
from .context import DispatchContext, payload_digest
from .dispatcher import (
    FULL,
    Decision,
    DispatchDeps,
    DispatchResult,
    DispatchToggles,
    MockExecutor,
    decide,
    dispatch,
)
from .errors import (
    ConfigError,
    ConflictFault,
    GenerationFault,
    IntegrityFault,
    LookupFault,
    StagegateError,
)
from .evaluation import (
    ABLATION_CONFIGS,
    EvalReport,
    blocking_metrics,
    compare_configs,
    compute_report,
)
from .memory import (
    FileEventStore,
    GoalManager,
    GoalRecord,
    GoalState,
    InMemoryEventStore,
    ProcessEvent,
    load_trace,
    replay_events,
)
from .registry import (
    Effect,
    RiskLevel,
    SkillRegistry,
    SkillSpec,
    apply_postconditions,
    build_registry,
    skill_from_dict,
)
from .router import (
    UNKNOWN,
    IntentPattern,
    MatchExpr,
    PatternTable,
    RoutingDecision,
    TokenOverlapFallback,
    identify,
    normalize,
    table_from_list,
    validate_table,
)
from .runner import RunResult, StepRecord, run_suite
from .scenarios import (
    DomainBundle,
    LabeledMessage,
    Scenario,
    bundle_from_dicts,
    check_bundle,
    detect_latent,
    inject_illegal,
    load_domain,
    load_suite,
    save_suite,
    simulate_scenario,
)

__version__ = "0.1.0"
