"""The package's public surface, and what a command line loads before it runs.

``import constellation_lab`` runs none of its modules: each exported name and
each submodule loads on its first read.  ``cli`` runs ``counting`` and
``permutations`` at import and binds ``tree_rooted``, ``symmetry``,
``nebulas`` and ``biddings`` as registered modules whose bodies run at their
first attribute read; ``puzzle``, ``constellations`` and ``halfedges`` are
imported by the commands that read them.
"""
import ast
import importlib
import json
import os
import subprocess
import sys

import pytest

import constellation_lab

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE_DIR = os.path.join(SRC, "constellation_lab")

# every name the package exports, by the submodule that defines it
EXPORTS = {
    "permutations": (
        "Composition", "Permutation", "compose", "cycle_type", "cycles", "inverse",
        "long_cycle",
    ),
    "constellations": ("Arborescence", "Constellation", "dual", "from_permutations", "validate"),
    "halfedges": (),
    "counting": (
        "CapExceededError", "CheckReport", "ColoredFactorization", "MTuple",
        "count_by_color_compositions", "count_colored", "count_kappa", "cycle_type_census",
        "enumerate_factorizations", "m_coefficient", "m_tuples", "verify_gf_identity",
        "verify_jackson", "verify_mv_formula",
    ),
    "tree_rooted": (
        "TreeRootedConstellation", "best_compose", "best_decompose", "phi", "phi_inverse", "xi",
    ),
    "symmetry": ("swap_degree",),
    "nebulas": (
        "Nebula", "TreePointedConstellation", "closure", "dual_closure", "dual_opening",
        "verify_pointing",
    ),
    "biddings": (
        "Bidding", "LabelledNebula", "Prebidding", "TypedGraph", "alpha", "alpha_graph",
        "is_valid_bidding", "psi", "psi_inverse", "sigma", "sigma_inverse", "vartheta",
        "vartheta_inverse",
    ),
    "puzzle": (
        "event_probability", "r1_probability", "sample_puzzle", "tree_probability",
        "verify_exchange_lemma", "verify_k3_inclusion_exclusion", "verify_puzzle",
    ),
    "cli": (),
}
# the modules whose bodies the benchmark's set-up statement must not run
DEFERRED = ("tree_rooted", "symmetry", "nebulas", "biddings", "constellations", "halfedges",
            "puzzle")
# (roundtrip row, lazy module, the guard-free core its forward map calls)
CORES = (
    ("phi", "tree_rooted", "_phi"),
    ("swap", "symmetry", "_swap_degree"),
    ("lambda", "nebulas", "_dual_opening"),
    ("sigma", "biddings", "_sigma"),
)


def _python(code: str, *args: str, bytecode: bool = True) -> str:
    """Standard output of a fresh interpreter running ``code`` with ``args``."""
    flags = [] if bytecode else ["-B"]
    done = subprocess.run([sys.executable, *flags, "-c", code, *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def _setup_code() -> str:
    """The statement whose run ``perfbench/run.py`` times as ``setup_s``,
    read from its source."""
    with open(os.path.join(ROOT, "perfbench", "run.py"), encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    (value,) = [node.value for node in tree.body if isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["SETUP_CODE"]]
    return ast.literal_eval(value)


def test_every_exported_name_is_its_modules_object(monkeypatch):
    for module, names in EXPORTS.items():
        loaded = importlib.import_module(f"constellation_lab.{module}")
        assert getattr(constellation_lab, module) is loaded
        for name in names:
            assert getattr(constellation_lab, name) is getattr(loaded, name), name
    # a name is read from its module on each access, so it follows a patch
    patched = lambda n, p: 0  # noqa: E731
    monkeypatch.setattr(constellation_lab.counting, "m_coefficient", patched)
    assert constellation_lab.m_coefficient is patched


def test_star_import_binds_every_exported_name_and_submodule():
    namespace = {}
    exec("from constellation_lab import *", namespace)
    for module, names in EXPORTS.items():
        for name in (module, *names):
            assert namespace[name] is getattr(constellation_lab, name), name


def test_dir_lists_the_surface_and_an_unknown_name_raises():
    listed = set(dir(constellation_lab))
    for module, names in EXPORTS.items():
        assert {module, *names} <= listed
    assert "__version__" in listed
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        constellation_lab.no_such_name
    assert not hasattr(constellation_lab, "Roundtrip")


def test_the_benchmark_setup_runs_no_module_of_the_bijection_chain():
    hook = (
        "import sys\n"
        "ran = []\n"
        "sys.addaudithook(lambda event, args: event == 'exec'"
        " and ran.append(getattr(args[0], 'co_filename', None)))\n"
    )
    report = "\nimport json; print(json.dumps([f for f in ran if isinstance(f, str)]))\n"
    ran = json.loads(_python(hook + _setup_code() + report, SRC, bytecode=False))
    bodies = {os.path.splitext(os.path.basename(f))[0] for f in ran
              if os.path.dirname(os.path.abspath(f)) == PACKAGE_DIR}
    # the hook sees the bodies that do run, so an empty set shows nothing
    assert {"__init__", "cli", "counting", "permutations"} <= bodies
    assert not bodies & set(DEFERRED)


ORDER = """
import json, sys
sys.path.insert(0, sys.argv[1])
first, row, name, attr = sys.argv[2:]
if first == "cli":
    from constellation_lab import cli
    from constellation_lab import nebulas
else:
    from constellation_lab import nebulas
    from constellation_lab import cli
import constellation_lab
# bound on the package as an import binds a submodule, not only found by its
# __getattr__
same = [getattr(cli, m) is sys.modules[f"constellation_lab.{m}"] is vars(constellation_lab).get(m)
        for m in ("tree_rooted", "symmetry", "nebulas", "biddings")]
same.append(cli.nebulas is nebulas)
calls = []

def core(*args):
    calls.append(args)
    raise ValueError("patched")

# patched before anything reads the module, so a lazy one runs its body after
setattr(sys.modules["constellation_lab." + name], attr, core)
checked, failures = cli._run_roundtrip(row, 3, 2, None, 10**6)
print(json.dumps({"same": same, "checked": checked, "failures": failures, "calls": len(calls)}))
"""


@pytest.mark.parametrize("first", ["cli", "nebulas"])
@pytest.mark.parametrize("row, name, attr", CORES)
def test_cli_reads_the_one_registered_module_whichever_is_imported_first(first, row, name, attr):
    result = json.loads(_python(ORDER, SRC, first, row, name, attr))
    assert result["same"] == [True] * 5
    assert result["checked"] > 0
    assert result["calls"] == result["failures"] == result["checked"]
