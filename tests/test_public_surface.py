"""The package's public surface: its export list, a caller in the package or
the benchmark for every exported name, and every name the benchmark's span
tracer (perfbench/spans.py) wraps."""

import ast
import importlib.util
from pathlib import Path

import nbibp
import nbibp.cli  # the tracer reaches cli.main; the package does not import it

# The recorded export set: adding or dropping a public name means editing it.
EXPORTS = {
    "RngStream", "digamma_fn", "harmonic_gap", "log_beta_fn", "log_rising_factorial",
    "BnbParams", "DigammaParams", "NbParams", "bnb_log_pmf", "bnb_sample",
    "bnb_total_mass", "digamma_log_pmf", "digamma_sample", "digamma_sample_rounds",
    "digamma_total_mass", "nb_log_pmf", "nb_sample",
    "CombStruct", "FeatureArray", "Hyperparams", "array_from_json", "array_to_json",
    "from_array", "log_pmf_array", "log_pmf_struct", "ordering_count", "project",
    "struct_from_json", "struct_to_json",
    "bnbp_sample_finitary", "nbibp_simulate", "predictive_step",
    "truncated_oracle_simulate",
    "ChainConfig", "ChainState", "HyperPrior", "PoissonFactorModel", "chain_record",
    "log_joint", "prior_state", "resample_counts", "run_chain", "sweep_once",
    "update_c_r", "update_entry", "update_mass_T", "update_singletons", "update_theta",
    "SUITES", "SuiteResult", "run_suites",
    "__version__",
}

# Exported names that no package or benchmark code calls, kept because tests
# compare against them.
ORACLES = {
    # the exact law that nb_sample, behind `sample --dist nb`, is checked against
    "nb_log_pmf",
}

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"


def test_export_list():
    names = nbibp.__all__
    assert len(names) == len(set(names))
    assert all(hasattr(nbibp, name) for name in names)
    assert set(names) == EXPORTS


def test_submodule_export_lists():
    # a stale name here would break `from nbibp.<module> import *`
    for mod in ("numerics", "distributions", "structures", "generative", "inference",
                "validation", "cli"):
        module = getattr(nbibp, mod)
        names = module.__all__
        assert len(names) == len(set(names)), mod
        missing = [name for name in names if not hasattr(module, name)]
        assert missing == [], (mod, missing)


class Uses(ast.NodeVisitor):
    """Identifiers a file uses: loaded names, attribute names, and string
    constants equal to an identifier (the span tracer names its targets so).
    Definitions, imports, `__all__` lists and a name's use inside its own
    definition are not uses."""

    def __init__(self):
        self.names = set()
        self.inside = []

    def visit_FunctionDef(self, node):
        self.inside.append(node.name)
        self.generic_visit(node)
        self.inside.pop()

    visit_ClassDef = visit_FunctionDef

    def visit_Assign(self, node):
        if not any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            self.generic_visit(node)

    def use(self, name):
        if name not in self.inside:
            self.names.add(name)

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load):
            self.use(node.id)

    def visit_Attribute(self, node):
        self.use(node.attr)
        self.generic_visit(node)

    def visit_Constant(self, node):
        if isinstance(node.value, str) and node.value.isidentifier():
            self.use(node.value)


def test_every_export_has_a_caller():
    # test-only API would grow back unseen; __version__ is metadata, not code
    uses = Uses()
    for path in sorted((ROOT / "src" / "nbibp").glob("*.py")) + sorted(
        (ROOT / "perfbench").glob("*.py")
    ):
        uses.visit(ast.parse(path.read_text()))
    unused = {name for name in nbibp.__all__ if not name.startswith("__")} - uses.names
    assert unused == ORACLES


def load_spans():
    spec = importlib.util.spec_from_file_location("nbibp_perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_tracer_targets_exist_and_uninstall_cleanly():
    spans = load_spans()
    mods = [nbibp] + [getattr(nbibp, m) for m in spans.MODULES]
    before = [(m, dict(vars(m))) for m in mods]
    methods = [
        (getattr(getattr(nbibp, mod), attr), method)
        for mod, attr, method, _ in spans.TARGETS
        if method is not None
    ]
    originals = [vars(cls)[method] for cls, method in methods]
    tracer = spans.Tracer(nbibp)
    try:
        tracer.install()
        for mod, attr, method, _ in spans.TARGETS:
            owner = getattr(getattr(nbibp, mod), attr)
            wrapped = vars(owner)[method] if method is not None else owner
            assert hasattr(wrapped, "__wrapped__"), f"{mod}.{attr} was not wrapped"
    finally:
        tracer.uninstall()
    for m, names in before:
        assert vars(m).keys() >= names.keys()
        changed = [k for k, v in names.items() if vars(m)[k] is not v]
        assert changed == [], (m.__name__, changed)
    assert [vars(cls)[method] for cls, method in methods] == originals
