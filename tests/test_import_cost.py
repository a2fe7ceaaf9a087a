"""What importing the package, the batch runner and the CLI loads.

Every package namespace resolves lazily (:mod:`repro._lazy`), so
``import repro.verify.runner`` loads only the modules a campaign runs.
The synthesis flow, the supervised pool (and with it
``multiprocessing``), the shrinker, the corpus scheduler and the
campaign journal load when a run first asks for them, never at import
and never inside a case of an in-process campaign.  networkx is not
imported at all: the runtime uses the standard library's graph
routines.
"""

from __future__ import annotations

import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

PACKAGES = (
    "repro",
    "repro.core",
    "repro.core.rtlgen",
    "repro.ips",
    "repro.lis",
    "repro.rtl",
    "repro.sched",
    "repro.synthesis",
    "repro.verify",
)

#: Modules no in-process campaign of either benchmark workload runs.
NOT_RUN_BY_CAMPAIGNS = (
    "multiprocessing",
    "repro.rtl.netlist",
    "repro.rtl.techmap",
    "repro.rtl.emitter",
    "repro.rtl.lint",
    "repro.core.synthesis",
    "repro.synthesis.flow",
    "repro.synthesis.report",
    "repro.core.rtlgen.testbench",
    "repro.core.rtlgen.lis_fabric",
    "repro.lis.floorplan",
    "repro.verify.supervise",
    "repro.verify.shrink",
    "repro.verify.corpus",
    "repro.verify.campaign",
)


def _run(code: str) -> str:
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=120,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    return result.stdout


def test_no_networkx_on_import():
    _run(
        "import sys\n"
        "import repro, repro.verify.runner, repro.cli\n"
        "assert 'networkx' not in sys.modules, 'networkx imported'\n"
    )


@pytest.mark.parametrize("module", ["repro.verify.runner", "repro.cli"])
def test_import_skips_what_campaigns_do_not_run(module):
    loaded = json.loads(
        _run(
            "import json, sys\n"
            f"import {module}\n"
            "print(json.dumps(sorted(sys.modules)))\n"
        )
    )
    assert not set(loaded) & set(NOT_RUN_BY_CAMPAIGNS), sorted(
        set(loaded) & set(NOT_RUN_BY_CAMPAIGNS)
    )


@pytest.mark.parametrize("workload", ["regular", "perturb-dynamic"])
def test_campaign_imports_no_further_repro_module(workload):
    """Everything a campaign runs is imported by the time its config
    is built (the benchmark's ``setup_s``), so no import lands inside
    a case and ``cases_per_s``.  The RTL styles' default engine is the
    one module this needs care for: ``Simulator(...)`` imports it on
    first construction."""
    new = json.loads(
        _run(
            "import json, sys\n"
            f"sys.path.insert(0, {str(ROOT / 'verifybench')!r})\n"
            "from repro.verify import runner\n"
            "from workloads import WORKLOADS\n"
            "config = runner.BatchConfig(\n"
            f"    cases=3, seed=0, jobs=1, **WORKLOADS[{workload!r}].config\n"
            ")\n"
            "before = set(sys.modules)\n"
            "report = runner.BatchRunner(config).run()\n"
            "assert report.ok and len(report.outcomes) == 3\n"
            "print(json.dumps(sorted(\n"
            "    m for m in set(sys.modules) - before\n"
            "    if m == 'repro' or m.startswith('repro.')\n"
            ")))\n"
        )
    )
    assert new == []


@pytest.mark.parametrize("package", PACKAGES)
def test_every_public_name_resolves(package):
    module = importlib.import_module(package)
    listed = dir(module)
    star: dict = {}
    exec(f"from {package} import *", star)
    for name in module.__all__:
        assert getattr(module, name) is star[name], name
        assert name in listed, name


def test_unknown_name_raises_attribute_error():
    import repro.verify

    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(repro.verify, "no_such_name")
    assert not hasattr(repro.core, "__no_such_dunder__")
    with pytest.raises(ImportError):
        exec("from repro.lis import no_such_name", {})


def test_names_and_submodules_load_on_first_access():
    _run(
        "import sys\n"
        "import repro.verify\n"
        "assert 'repro.verify.corpus' not in sys.modules\n"
        "assert 'topology_digest' not in vars(repro.verify)\n"
        "digest = repro.verify.topology_digest\n"
        "assert vars(repro.verify)['topology_digest'] is digest\n"
        "assert 'repro.verify.corpus' in sys.modules\n"
        "assert repro.verify.corpus.topology_digest is digest\n"
        "assert 'repro.verify.shrink' not in sys.modules\n"
        "import repro\n"
        "assert repro.verify.shrink.shrink_case is repro.verify.shrink_case\n"
        "assert repro.lis.floorplan.plan_channel is repro.lis.plan_channel\n"
    )
