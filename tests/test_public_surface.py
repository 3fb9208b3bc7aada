"""The package's public surface: its export list, a caller in the package or
the benchmark for every exported name, and every name the benchmark's span
tracer (perfbench/spans.py) wraps, which must see the calls the package
makes."""

import ast
import importlib.util
from pathlib import Path

import numpy as np

import nbibp
import nbibp.cli  # the tracer reaches cli.main; the package does not import it
from nbibp import (
    ChainState,
    FeatureArray,
    Hyperparams,
    PoissonFactorModel,
    RngStream,
    nbibp_simulate,
    run_chain,
    sweep_once,
)

# The recorded export set: adding or dropping a public name means editing it.
EXPORTS = {
    "RngStream", "harmonic_gap",
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
    # the canonical writer of the struct records that struct_from_json, behind
    # `pmf`, reads; the round-trip tests compare against it
    "struct_to_json",
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
    """Identifiers a file uses: loaded names and attribute names.  Definitions,
    imports, `__all__` lists, a name's use inside its own definition and
    string constants (such as the names the span tracer wraps) are not
    uses."""

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


def test_tracer_sees_the_kernels():
    # sweep_once and nbibp_simulate call the row kernels through their module
    # names, so the tracer's wrappers count one call per row, and the buffet
    # opens each dish with one digamma_sample_rounds call; tracing takes no
    # draws, so the results equal an untraced twin's
    spans = load_spans()
    hp = Hyperparams(1.0, 1.0, 2.0)
    W = FeatureArray(4, ((1, 0, 2, 0), (0, 1, 1, 3), (2, 0, 0, 1)))
    y = [[1, 0], [2, 1], [3, 4], [0, 2]]

    def sweep():
        model = PoissonFactorModel(y)
        state = ChainState(W, np.ones((3, 2)), hp, (1.0, 1.0), RngStream(7, 0))
        sweep_once(state, model)
        return state.W, state.Theta, state.hp

    def simulate():
        return nbibp_simulate(3, hp, RngStream(7, 1))

    def traced(run):
        tracer = spans.Tracer(nbibp)
        try:
            tracer.install()
            tracer.active = True
            out = run()
            tracer.active = False
        finally:
            tracer.uninstall()
        return out, tracer.stats()

    swept, stats = traced(sweep)
    assert stats["inference.update_entry.calls"] == W.n
    assert stats["inference.update_singletons.calls"] == W.n
    plain = sweep()
    assert swept[0] == plain[0] and swept[2] == plain[2]
    assert np.array_equal(swept[1], plain[1])
    drawn, stats = traced(simulate)
    assert stats["generative.predictive_step.calls"] == 3
    assert drawn.kappa > 0
    assert stats["distributions.digamma_sample_rounds.calls"] == drawn.kappa
    assert stats["distributions.digamma.rounds"] >= drawn.kappa
    assert drawn == simulate()


def test_tracer_counts_one_call_per_banked_row(monkeypatch):
    # above BANK_MIN sweep_once hands one entry bank to every update_entry
    # call, so the tracer still counts one call per row, and tracing takes no
    # draws from the bank either
    spans = load_spans()
    g = np.random.default_rng(5)
    n, V, K = 100, 10, 12
    W = np.where(g.random((n, K)) < 0.3, 1 + g.poisson(1.0, (n, K)), 0)
    W[0] += 1  # every column used
    theta = g.gamma(1.0, 1.0, (K, V))
    y = g.poisson(W @ theta)
    assert W.size >= nbibp.inference.BANK_MIN
    banks = []
    bank = nbibp.inference._EntryBank

    def kept_bank(*args):
        banks.append(bank(*args))
        return banks[-1]

    monkeypatch.setattr(nbibp.inference, "_EntryBank", kept_bank)

    def sweep():
        model = PoissonFactorModel(y)
        state = ChainState(
            FeatureArray.from_matrix(W), theta, Hyperparams(1.0, 1.0, 2.0), (1.0, 1.0),
            RngStream(9, 0),
        )
        nbibp.inference.sweep_once(state, model)
        return state.counts, state.Theta

    tracer = spans.Tracer(nbibp)
    try:
        tracer.install()
        tracer.active = True
        swept = sweep()
        tracer.active = False
    finally:
        tracer.uninstall()
    stats = tracer.stats()
    assert stats["inference.sweep_once.calls"] == 1
    assert stats["inference.update_entry.calls"] == n
    assert len(banks) == 1 and banks[0].gammas.shape == (n, K)  # the rows read it
    plain = sweep()
    assert np.array_equal(swept[0], plain[0]) and np.array_equal(swept[1], plain[1])


def test_traced_spans_have_no_negative_times():
    # the tracer reads state.W between pushing a kernel's span and starting
    # its clock; a W built on that read goes through FeatureArray._unchecked,
    # which skips the __post_init__ the tracer wraps, so it nests no span
    # before its parent began
    spans = load_spans()
    hp = Hyperparams(1.0, 1.0, 2.0)
    W = FeatureArray(4, ((1, 0, 2, 0), (0, 1, 1, 3), (2, 0, 0, 1)))
    model = PoissonFactorModel([[1, 0], [2, 1], [3, 4], [0, 2]])

    def chain():
        init = ChainState(W, np.ones((3, 2)), hp, (1.0, 1.0), RngStream(8, 0))
        for _ in run_chain(model, init, 3, init.rng):
            pass

    def sweeps():  # looked up at call time, so that the tracer's wrapper runs
        state = ChainState(W, np.ones((3, 2)), hp, (1.0, 1.0), RngStream(8, 1))
        nbibp.inference.sweep_once(state, model)
        assert state.W.n == 4
        nbibp.inference.sweep_once(state, model)

    for pattern in (chain, sweeps):
        tracer = spans.Tracer(nbibp)
        try:
            tracer.install()
            tracer.active = True
            pattern()
            tracer.active = False
        finally:
            tracer.uninstall()
        stats = tracer.stats()
        assert stats["inference.sweep_once.calls"] > 1
        negative = {k: v for k, v in stats.items() if k.endswith((".s", ".self_s")) and v < 0.0}
        assert negative == {}, pattern.__name__


def test_no_unused_imports():
    # no linter ships with the package, so this gate stands in for one: every
    # name an import binds in a module or a test file must be read somewhere
    # in that file
    paths = sorted((ROOT / "src" / "nbibp").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    assert ROOT / "tests" / "test_public_surface.py" in paths
    for path in paths:
        if path.name == "__init__.py":  # its imports are the re-exports
            continue
        tree = ast.parse(path.read_text())
        bound = {
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        }
        loaded = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        assert bound - loaded == set(), path.name


def test_no_approx_pin_below_its_default_abs():
    # pytest.approx adds abs=1e-12 unless told otherwise, so a pinned literal
    # x with 0 < |x| < 1e-12 and no abs= accepts any value that small, 0.0
    # included
    def vacuous(source):
        lines = []
        for node in ast.walk(ast.parse(source)):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "approx" and node.args):
                continue
            try:
                x = ast.literal_eval(node.args[0])
            except ValueError:
                continue
            keywords = {k.arg for k in node.keywords}
            if isinstance(x, (int, float)) and 0 < abs(x) < 1e-12 and "abs" not in keywords:
                lines.append(node.lineno)
        return lines

    assert vacuous("a == pytest.approx(1.26e-304, rel=1e-6)\nb == pytest.approx(-1e-13)") == [1, 2]
    assert vacuous("a == pytest.approx(1.26e-304, abs=0.0)\nb == pytest.approx(1e-3)") == []
    for path in sorted((ROOT / "tests").glob("*.py")):
        assert vacuous(path.read_text()) == [], path.name


def test_every_quad_passes_full_output():
    # with full_output=1 QUADPACK reports roundoff or a subdivision limit in
    # its return value; without it, an IntegrationWarning would reach a CLI
    # user's stderr as a second line.  Each caller gates the error estimate.
    def bare(source):
        return [
            node.lineno
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) == "quad"
            and not any(k.arg == "full_output" and getattr(k.value, "value", None) == 1
                        for k in node.keywords)
        ]

    assert bare("quad(f, 0, 1)\nintegrate.quad(f, 0, 1, full_output=0)") == [1, 2]
    assert bare("quad(f, 0, 1, full_output=1)\nquadrature(f, 0, 1)") == []
    for path in sorted((ROOT / "src" / "nbibp").glob("*.py")):
        assert bare(path.read_text()) == [], path.name


def test_chain_array_read_only_through_counts():
    # the chain's array is its count matrix; the FeatureArray view W stays
    # for the benchmark, which reads it, and no top-level definition in the
    # package reads it
    def readers(source):
        return {
            getattr(top, "name", None)
            for top in ast.parse(source).body
            if any(isinstance(node, ast.Attribute) and node.attr == "W" for node in ast.walk(top))
        }

    assert readers("class S:\n    def f(self):\n        return self.W\n") == {"S"}
    for path in sorted((ROOT / "src" / "nbibp").glob("*.py")):
        assert readers(path.read_text()) == set(), path.name
