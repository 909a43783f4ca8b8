"""The Hello World task corpus: metamodels, the transformation machines,
fixtures, and the task runner."""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

from ..errors import GtvmError
from ..modelspace import ENTITY, RELATION, ModelSpace, TypeRegistry
from ..rules import VM, ExecutionReport, LinkedProgram, Machine

# (name, kind, supertype); registered under nemf.packages.* with the ecore
# datatypes alongside
_NP = "nemf.packages."
METAMODEL_TYPES = [
    ("nemf.ecore.datatypes.EString", ENTITY, None),
    ("nemf.ecore.datatypes.EInt", ENTITY, None),
    ("datatypes.String", ENTITY, None),
    ("datatypes.Integer", ENTITY, None),
    ("datatypes.Boolean", ENTITY, None),
    (_NP + "graph1.Graph", ENTITY, None),
    (_NP + "graph1.Node", ENTITY, None),
    (_NP + "graph1.Edge", ENTITY, None),
    (_NP + "graph1.Graph.nodes", RELATION, None),
    (_NP + "graph1.Graph.edges", RELATION, None),
    (_NP + "graph1.Edge.src", RELATION, None),
    (_NP + "graph1.Edge.trg", RELATION, None),
    (_NP + "graph1.Node.name", RELATION, None),
    (_NP + "graph2.Graph", ENTITY, None),
    (_NP + "graph2.GraphComponent", ENTITY, None),
    (_NP + "graph2.Node", ENTITY, _NP + "graph2.GraphComponent"),
    (_NP + "graph2.Edge", ENTITY, _NP + "graph2.GraphComponent"),
    (_NP + "graph2.Graph.gcs", RELATION, None),
    (_NP + "graph2.Edge.src", RELATION, None),
    (_NP + "graph2.Edge.trg", RELATION, None),
    (_NP + "graph2.GraphComponent.text", RELATION, None),
    (_NP + "graph3.Graph", ENTITY, None),
    (_NP + "graph3.Node", ENTITY, None),
    (_NP + "graph3.Graph.nodes", RELATION, None),
    (_NP + "graph3.Node.text", RELATION, None),
    (_NP + "graph3.Node.linksTo", RELATION, None),
    (_NP + "helloworld.Greeting", ENTITY, None),
    (_NP + "helloworld.Greeting.text", RELATION, None),
    (_NP + "helloworldext.Greeting", ENTITY, None),
    (_NP + "helloworldext.GreetingMessage", ENTITY, None),
    (_NP + "helloworldext.Person", ENTITY, None),
    (_NP + "helloworldext.Greeting.greetingMessage", RELATION, None),
    (_NP + "helloworldext.Greeting.person", RELATION, None),
    (_NP + "helloworldext.GreetingMessage.text", RELATION, None),
    (_NP + "helloworldext.Person.name", RELATION, None),
    (_NP + "result.StringResult", ENTITY, None),
    (_NP + "result.IntResult", ENTITY, None),
    (_NP + "result.StringResult.result", RELATION, None),
    (_NP + "result.IntResult.result", RELATION, None),
]


def metamodels() -> TypeRegistry:
    """Fresh registry with every corpus metamodel pre-registered (builtin)."""
    registry = TypeRegistry()
    for name, kind, sup in METAMODEL_TYPES:
        registry.register(name, kind, sup, builtin=True)
    return registry


CORPUS_MACHINES = [
    "helloWorldASM", "helloWorldGT", "graphPatterns",
    "countMatchesASM", "countMatchesMC",
    "reverseEdgesASM", "reverseEdgesGT", "reverseEdgesRel",
    "simpleMigration", "simpleMigration-fixed", "simpleMigrationInplace",
    "simpleMigrationTopology", "simpleMigrationTopologyInplace",
    "deleteNodeASM", "deleteNodeGT", "deleteNodeIncidentASM", "deleteNodeIncidentGT",
    "transitiveEdgesASM", "transitiveEdgesGT",
    "transitiveEdgesIterativeASM", "transitiveEdgesIterativeGT",
    "transitiveEdgesAllASM", "transitiveEdgesAllGT",
]


def corpus_source(name: str) -> str:
    ref = resources.files(__package__).joinpath(f"data/{name}.vtcl")
    try:
        return ref.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise GtvmError(f"no corpus machine {name!r}") from None


def fixture_gms(name: str) -> str:
    ref = resources.files(__package__).joinpath(f"fixtures/{name}.gms")
    return ref.read_text(encoding="utf-8")


def load_machine(name: str) -> Machine:
    from ..vtcl import parse
    return parse(corpus_source(name))


def load_program(names: list[str], registry: TypeRegistry | None = None) -> LinkedProgram:
    from ..vtcl import link
    if registry is None:
        registry = metamodels()
    return link([load_machine(n) for n in names], registry)


def library_program(registry: TypeRegistry) -> LinkedProgram:
    from ..vtcl import link
    return link([load_machine("graphPatterns")], registry)


# (task, variant) -> (machine files..., entry machine name)
TASKS = {
    ("2.1", "asm"): (("helloWorldASM",), "helloWorldASM"),
    ("2.1", "gt"): (("helloWorldGT",), "helloWorldGT"),
    ("2.2", "asm"): (("graphPatterns", "countMatchesASM"), "countMatchesASM"),
    ("2.2", "mc"): (("graphPatterns", "countMatchesMC"), "countMatchesMC"),
    ("2.3", "asm"): (("graphPatterns", "reverseEdgesASM"), "reverseEdgesASM"),
    ("2.3", "gt"): (("graphPatterns", "reverseEdgesGT"), "reverseEdgesGT"),
    ("2.3", "rel"): (("graphPatterns", "reverseEdgesRel"), "reverseEdgesRel"),
    ("2.4", "copy"): (("graphPatterns", "simpleMigration-fixed"), "simpleMigrationFixed"),
    ("2.4", "copy-verbatim"): (("graphPatterns", "simpleMigration"), "simpleMigration"),
    ("2.4", "inplace"): (("graphPatterns", "simpleMigrationInplace"), "simpleMigrationInplace"),
    ("2.4", "topo-copy"): (("graphPatterns", "simpleMigrationTopology"), "simpleMigrationTopology"),
    ("2.4", "topo-inplace"): (("graphPatterns", "simpleMigrationTopologyInplace"),
                              "simpleMigrationTopologyInplace"),
    ("2.5", "asm"): (("graphPatterns", "deleteNodeASM"), "deleteNodeASM"),
    ("2.5", "gt"): (("graphPatterns", "deleteNodeGT"), "deleteNodeGT"),
    ("2.5", "inc-asm"): (("graphPatterns", "deleteNodeIncidentASM"), "deleteNodeIncidentASM"),
    ("2.5", "inc-gt"): (("graphPatterns", "deleteNodeIncidentGT"), "deleteNodeIncidentGT"),
    ("2.6", "once-asm"): (("graphPatterns", "transitiveEdgesASM"), "transitiveEdgesASM"),
    ("2.6", "once-gt"): (("graphPatterns", "transitiveEdgesGT"), "transitiveEdgesGT"),
    ("2.6", "iter-asm"): (("graphPatterns", "transitiveEdgesIterativeASM"),
                          "transitiveEdgesIterativeASM"),
    ("2.6", "iter-gt"): (("graphPatterns", "transitiveEdgesIterativeGT"),
                         "transitiveEdgesIterativeGT"),
    ("2.6", "all-asm"): (("graphPatterns", "transitiveEdgesAllASM"), "transitiveEdgesAllASM"),
    ("2.6", "all-gt"): (("graphPatterns", "transitiveEdgesAllGT"), "transitiveEdgesAllGT"),
}


@dataclass
class TaskResult:
    report: ExecutionReport
    space: ModelSpace
    program: LinkedProgram

    def int_results(self) -> dict[str, int]:
        return {name: value for name, value in self.report.results
                if isinstance(value, int)}


def run_task(task: str, variant: str, fixture: str | ModelSpace | None = None,
             matcher: str = "inc", echo: bool = False,
             step_budget: int | None = None, **fixture_params) -> TaskResult:
    """Execute one corpus program on a fixture (or a given space)."""
    from .fixtures import load_fixture
    key = (task, variant)
    if key not in TASKS:
        variants = sorted(v for t, v in TASKS if t == task)
        raise GtvmError(f"unknown variant {variant!r} for task {task} "
                        f"(have {', '.join(variants) or 'nothing'})")
    files, entry = TASKS[key]
    if isinstance(fixture, ModelSpace):
        space = fixture
        registry = space.registry
    else:
        space = load_fixture(fixture or "empty", **fixture_params)
        registry = space.registry
    program = load_program(list(files), registry)
    vm = VM(program, space, matcher=matcher, step_budget=step_budget, echo=echo)
    report = vm.run(entry)
    return TaskResult(report, space, program)
