"""The lazy package namespace and what each CLI start loads.

`import glpgalois` loads no submodule; a public name loads its home module
on first access.  Each subcommand loads only the modules it runs, so a start
without a bytecode cache compiles no others.  What a process has loaded is
read from `sys.modules` in a fresh interpreter.
"""

import importlib
import json
import os
import subprocess
import sys

import pytest

import glpgalois

# loaded by no start of the CLI: only `glp-scan --jobs N > 1` imports
# multiprocessing, and the records are no dataclasses (which bring inspect)
NEVER_LOADED = {"numpy", "dataclasses", "multiprocessing", "inspect"}

REPORT_MODULES = (
    "import json, sys\n"
    "print(json.dumps(sorted(m for m in sys.modules if m.startswith('glpgalois')\n"
    f"                       or m in {sorted(NEVER_LOADED)!r})))\n"
)


def fresh(code: str) -> str:
    """stdout of `code` run in a fresh interpreter that imports this package."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(glpgalois.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    return out.stdout


def loaded_after(argv) -> set[str]:
    """The glpgalois modules (and NEVER_LOADED ones) in a fresh process after
    `cli.main(argv)`, which must exit 0."""
    code = (
        "import contextlib, io\n"
        "from glpgalois import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    if cli.main({argv!r}) != 0:\n"
        "        raise SystemExit(1)\n" + REPORT_MODULES
    )
    return set(json.loads(fresh(code).splitlines()[-1]))


def test_import_loads_no_submodule():
    assert fresh("import glpgalois\n" + REPORT_MODULES) == '["glpgalois"]\n'


@pytest.mark.parametrize("argv, absent", [
    (["np", "--poly", "6,18,9,1", "--prime", "3"], {"certify", "modp", "glp"}),
    (["index", "--poly", "6,18,9,1"], {"certify", "modp", "glp"}),
    (["certify", "--poly", "6,18,9,1", "--shifts", "0,1,-1"], {"modp", "glp"}),
    (["frobenius", "--poly", "1,0,1", "--json"], {"newton", "certify", "glp"}),
    (["glp-disc", "--n", "9", "--alpha", "5/3", "--verify-resultant"],
     {"modp", "certify", "newton"}),
    (["glp-classify", "--n", "9", "--alpha", "0"], {"modp"}),  # single slope
])
def test_subcommand_loads_only_its_modules(argv, absent):
    loaded = loaded_after(argv)
    assert "glpgalois.cli" in loaded
    assert not loaded & ({f"glpgalois.{m}" for m in absent} | NEVER_LOADED), argv


def test_primes_loads_no_polys():
    # the primes of a_0 * a_n are read from integers, so primes needs no Poly
    loaded = set(json.loads(fresh("import glpgalois.primes\n" + REPORT_MODULES)))
    assert "glpgalois.primes" in loaded and "glpgalois.polys" not in loaded, loaded


def test_degree_set_filter_loads_modp():
    # n = 12, alpha = 0 has no single-slope polygon; the mod-p filter proves it
    loaded = loaded_after(["glp-classify", "--n", "12", "--alpha", "0"])
    assert "glpgalois.modp" in loaded and not loaded & NEVER_LOADED


def test_warm_classify_runs_no_import_statement(monkeypatch):
    # the classify path reads certify and newton (and modp, for the filter)
    # as attributes of the package, not by an import statement per call
    import builtins

    from glpgalois.glp import GlpParams, classification_to_dict, classify

    cases = [GlpParams.from_alpha(50, "5/3"), GlpParams.from_alpha(12, 0)]  # single slope; filter
    want = [classification_to_dict(classify(params)) for params in cases]
    imported = []

    def recording_import(name, *args, **kwargs):
        imported.append(name)
        return real_import(name, *args, **kwargs)

    real_import = builtins.__import__
    monkeypatch.setattr(builtins, "__import__", recording_import)
    got = [classification_to_dict(classify(params)) for params in cases]
    monkeypatch.undo()
    assert got == want and imported == []


class TestNamespace:
    def test_every_public_name_is_its_home_modules_object(self):
        assert len(set(glpgalois.__all__)) == len(glpgalois.__all__)
        for name in glpgalois.__all__:
            obj = getattr(glpgalois, name)
            home = importlib.import_module(obj.__module__)
            assert home.__name__.startswith("glpgalois."), name
            assert getattr(home, name) is obj, name

    def test_star_import_binds_every_public_name(self):
        namespace = {}
        exec("from glpgalois import *", namespace)
        for name in glpgalois.__all__:
            assert namespace[name] is getattr(glpgalois, name), name
        assert set(glpgalois.__all__) <= set(dir(glpgalois))

    def test_unknown_name_raises_and_imports_nothing(self):
        code = (
            "import glpgalois\n"
            "for name in ('no_such_name', 'glp_newton', '_HOMES_', 'ord_p', 'lemma_key_check',\n"
            "             'primes_in_ap_interval', 'poly_from_coeffs'):\n"
            "    try:\n"
            "        getattr(glpgalois, name)\n"
            "    except AttributeError as exc:\n"
            "        print(exc)\n"
            "try:\n"
            "    from glpgalois import no_such_name\n"
            "except ImportError:\n"
            "    print('ImportError')\n" + REPORT_MODULES
        )
        assert fresh(code).splitlines() == [
            "module 'glpgalois' has no attribute 'no_such_name'",
            "module 'glpgalois' has no attribute 'glp_newton'",
            "module 'glpgalois' has no attribute '_HOMES_'",
            # removed from the package: no library code called them
            "module 'glpgalois' has no attribute 'ord_p'",
            "module 'glpgalois' has no attribute 'lemma_key_check'",
            "module 'glpgalois' has no attribute 'primes_in_ap_interval'",
            "module 'glpgalois' has no attribute 'poly_from_coeffs'",
            "ImportError",
            '["glpgalois"]',
        ]

    def test_submodule_resolves_without_explicit_import(self):
        code = "import glpgalois\nprint(glpgalois.modp.__name__, glpgalois.cli.__name__)"
        assert fresh(code) == "glpgalois.modp glpgalois.cli\n"

    @pytest.mark.parametrize("first", [
        "import glpgalois.glp",
        "import glpgalois; glpgalois.glp",
        "import glpgalois; glpgalois.classify",
        "import glpgalois.modp; from glpgalois import *",
    ])
    def test_glp_is_the_module_in_every_import_order(self, first):
        code = (
            f"{first}\n"
            "import glpgalois.glp\n"
            "print(glpgalois.glp.__name__, glpgalois.glp.glp.__name__,\n"
            "      glpgalois.glp.classify is glpgalois.classify)\n"
        )
        assert fresh(code) == "glpgalois.glp glp True\n"

    def test_classification_pickles_through_the_lazy_names(self):
        code = (
            "import pickle, glpgalois\n"
            "c = glpgalois.classify(glpgalois.GlpParams(12, 0, 1))\n"
            "d = pickle.loads(pickle.dumps(c))\n"
            "print(d == c, type(d) is glpgalois.Classification, d.group)\n"
        )
        assert fresh(code) == "True True S_n\n"
