"""The CLI is a projection of ``repro.api``: source and set-up guards.

``src/repro/cli/`` may reach the library only through the facade, each of
its three shared decisions (flags -> config, ``--json`` output, usage
errors) has exactly one home, and what ``import repro.api`` compiles — the
benchmark's ``setup_s`` — has not grown past the parent commit's.
"""

import ast
import pathlib
import re
import subprocess
import sys

import pytest

import repro

SRC = pathlib.Path(repro.__file__).parent
CLI = SRC / "cli"
CLI_FILES = sorted(CLI.glob("*.py"))

#: The standard-library modules the CLI uses (``sys.stdlib_module_names``
#: needs Python 3.10; CI also runs 3.9).
STDLIB = {
    "__future__", "argparse", "contextlib", "dataclasses", "json", "os", "sys",
    "typing",
}

#: What a CLI module may import besides the standard library.
ALLOWED_IMPORTS = (
    r"repro$",  # `from repro import api`
    r"repro\.api$",
    r"repro\.report(\.|$)",
    r"repro\.types$",
    r"repro\.cli(\.|$)",
    r"repro\.experiments(\.(figure\w+|table1|deadlock_demo))?$",
)

#: Lines ``import repro.api`` compiles (61 modules; 15,620 in 63 at f6a3f40,
#: 15,580 at a34f360, 15,447 in 62 before ``repro.noc.kernel`` became an
#: import of the batched backend only).
PARENT_API_SOURCE_LINES = 14_685


def _imports(path):
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, [alias.name]
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, f"{path.name}: relative import"
            yield node.module, [alias.name for alias in node.names]


def test_one_module_per_subcommand_and_no_cli_py():
    from repro.cli import COMMANDS

    assert not (SRC / "cli.py").exists()
    assert {path.stem for path in CLI_FILES} == {"__init__", "common", *COMMANDS}
    for path in CLI_FILES:
        assert len(path.read_text().splitlines()) <= 350, path.name


@pytest.mark.parametrize("path", CLI_FILES, ids=lambda path: path.name)
def test_cli_modules_reach_the_library_only_through_the_facade(path):
    for module, names in _imports(path):
        if module.split(".")[0] != "repro":
            assert module in STDLIB, f"{path.name} imports {module}"
            continue
        assert any(re.match(pattern, module) for pattern in ALLOWED_IMPORTS), (
            f"{path.name} imports {module}"
        )
        if module == "repro":
            assert names == ["api"], f"{path.name}: from repro import {names}"
        if module == "repro.experiments":
            assert all(
                re.match(r"figure\w+$|table1$|deadlock_demo$", name) for name in names
            ), f"{path.name}: from repro.experiments import {names}"


def test_each_shared_decision_has_one_home():
    source = {path.name: path.read_text() for path in CLI_FILES}
    everything = "\n".join(source.values())
    # No handler drives the simulator, builds a config object, walks a
    # directory or merges a spec by hand ...
    for name in (
        "Simulator", "run_simulation", "load_checkpoint", "write_ndjson",
        "NoCConfig(", "WorkloadConfig(", "rglob", "_deep_merge",
        "_platform_dict", "_cmd_degrade_burst", "_emit",
    ):
        assert name not in everything, name
    # ... or knows a serialized config key the facade has an alias for.
    for key in (
        "num_vcs", "vc_buffer_depth", "flits_per_packet", "retx_buffer_depth",
        "link_protection", "warmup_messages", "link_multi_bit_fraction",
    ):
        assert key not in everything, key
    assert everything.count("json.dumps") == 1 and "json.dumps" in source["common.py"]
    assert everything.count("error: ") == 1 and '"error: ' in source["common.py"]


def test_the_deleted_twins_stay_deleted():
    from repro.experiments import common, figure5, figure6_7, figure8_9, figure13

    assert not hasattr(common, "format_series")
    for module in (figure5, figure6_7, figure8_9, figure13):
        assert not hasattr(module, "main") and callable(module.tables)


def _in_a_fresh_interpreter(code):
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={"PYTHONPATH": str(SRC.parent), "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_the_facade_never_imports_the_cli():
    _in_a_fresh_interpreter(
        "import repro.api, sys; "
        "assert not any(m.startswith('repro.cli') for m in sys.modules)"
    )


def test_import_repro_api_imports_only_the_standard_library():
    """No optional dependency decides what runs: numpy is installed on some
    hosts (where this fails if the kernel imports it again) and on no CI
    runner, so nothing under ``src/`` and no extra may name it."""
    _in_a_fresh_interpreter(
        "import sys\n"
        "before = set(sys.modules)\n"
        "import repro.api\n"
        "foreign = sorted(\n"
        "    name for name in set(sys.modules) - before\n"
        "    if 'site-packages' in (getattr(sys.modules[name], '__file__', None) or '')\n"
        ")\n"
        "assert not foreign and 'numpy' not in sys.modules, foreign"
    )
    root = SRC.parent.parent
    named = [
        str(path.relative_to(root))
        for path in [*SRC.parent.rglob("*.py"), root / "pyproject.toml"]
        if "numpy" in path.read_text()
    ]
    assert not named, named


def test_import_repro_api_compiles_no_more_source_than_the_parent():
    """The ledger's ``setup_s`` is mostly this import (bytecode caching is
    off in the sandbox), so code moved into the facade's import closure is
    paid by every workload."""
    lines = int(
        _in_a_fresh_interpreter(
            "import repro.api, sys\n"
            "files = [m.__file__ for n, m in sys.modules.items()\n"
            "         if n.split('.')[0] == 'repro' and getattr(m, '__file__', None)]\n"
            "print(sum(len(open(f).read().splitlines()) for f in files))"
        )
    )
    assert lines <= PARENT_API_SOURCE_LINES, lines
