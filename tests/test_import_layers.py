"""Layering enforcement: the import graph obeys docs/ARCHITECTURE.md.

Walks every module under ``src/repro`` with ``ast`` (no imports are
executed), resolves absolute and relative imports to package names, and
pins the documented dependency rules: ``signals`` imports nothing from
the package, ``txline`` sees only ``signals``, ``core`` never imports
applications, and the monitoring runtime sits inside ``core``.
"""

import ast
from pathlib import Path
from typing import Dict, List, Set

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
PKG = SRC / "repro"

#: Every package a layer is allowed to import from (its own is implied).
ALLOWED: Dict[str, Set[str]] = {
    "signals": set(),
    "txline": {"signals"},
    "env": {"signals", "txline"},
    "attacks": {"signals", "txline"},
    "core": {"signals", "txline", "env", "attacks"},
    "analysis": {"signals", "txline", "env", "attacks", "core"},
    "protocols": {"signals", "txline", "env", "attacks", "core"},
    "baselines": {"signals", "txline", "env", "attacks", "core", "analysis"},
    "campaigns": {
        "signals", "txline", "env", "attacks", "core", "analysis",
        "protocols",
    },
    "membus": {
        "signals", "txline", "env", "attacks", "core", "analysis",
        "protocols",
    },
    "iolink": {
        "signals", "txline", "env", "attacks", "core", "analysis",
        "protocols",
    },
}

APPLICATIONS = {"membus", "iolink", "baselines"}


def module_parts(path: Path) -> List[str]:
    """Dotted-path components of a module file (``__init__`` kept)."""
    return list(path.relative_to(SRC).with_suffix("").parts)


def imported_modules(path: Path) -> Set[str]:
    """Absolute dotted names of everything ``path`` imports.

    ``from a import b`` contributes both ``a`` and ``a.b``, so a pin on
    a submodule holds whichever import form reaches it.
    """
    tree = ast.parse(path.read_text())
    parts = module_parts(path)
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                found.add(alias.name)
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                module = node.module or ""
            else:
                # Relative import: strip ``level`` components off this
                # module's own dotted path (``__init__`` counts as one).
                base = parts[: len(parts) - node.level]
                suffix = node.module.split(".") if node.module else []
                module = ".".join(base + suffix)
            found.add(module)
            found.update(f"{module}.{alias.name}" for alias in node.names)
    return found


def repro_packages_imported(path: Path) -> Set[str]:
    """Top-level repro sub-packages ``path`` imports from."""
    packages = set()
    for name in imported_modules(path):
        pieces = name.split(".")
        if pieces[0] == "repro" and len(pieces) > 1:
            packages.add(pieces[1])
    return packages


def modules_of(package: str) -> List[Path]:
    files = sorted((PKG / package).rglob("*.py"))
    assert files, f"package {package!r} has no modules"
    return files


class TestImportLayers:
    @pytest.mark.parametrize("package", sorted(ALLOWED))
    def test_layer_obeys_dependency_rules(self, package):
        allowed = ALLOWED[package] | {package}
        for path in modules_of(package):
            imported = repro_packages_imported(path)
            excess = imported - allowed
            assert not excess, (
                f"{path.relative_to(SRC)} imports {sorted(excess)}; "
                f"{package} may only see {sorted(allowed)}"
            )

    def test_core_never_imports_applications(self):
        for path in modules_of("core"):
            imported = repro_packages_imported(path)
            assert not (imported & APPLICATIONS), (
                f"{path.relative_to(SRC)} reaches into an application "
                f"layer: {sorted(imported & APPLICATIONS)}"
            )
            assert "experiments" not in imported

    def test_protocols_never_imports_applications(self):
        """The protocol layer discovers application-owned specs by dotted
        name (``importlib``), never by static import — so it can sit
        below the applications that register with it."""
        for path in modules_of("protocols"):
            imported = repro_packages_imported(path)
            assert not (imported & APPLICATIONS), (
                f"{path.relative_to(SRC)} reaches into an application "
                f"layer: {sorted(imported & APPLICATIONS)}"
            )

    def test_applications_never_import_each_other_or_experiments(self):
        for app in sorted(APPLICATIONS):
            forbidden = (APPLICATIONS - {app}) | {"experiments"}
            for path in modules_of(app):
                imported = repro_packages_imported(path)
                assert not (imported & forbidden), (
                    f"{path.relative_to(SRC)} imports "
                    f"{sorted(imported & forbidden)}"
                )

    def test_runtime_sits_in_core(self):
        """The monitoring runtime is a core subpackage seeing only core
        and the layers below it."""
        runtime = PKG / "core" / "runtime"
        assert (runtime / "__init__.py").exists()
        allowed = ALLOWED["core"] | {"core"}
        for path in sorted(runtime.rglob("*.py")):
            imported = repro_packages_imported(path)
            assert imported <= allowed, (
                f"{path.relative_to(SRC)} imports {sorted(imported)}"
            )

    def test_every_workload_drives_the_runtime(self):
        """The three traffic-bearing applications are runtime consumers —
        none keeps a hand-rolled monitoring loop."""
        for module in [
            PKG / "membus" / "system.py",
            PKG / "iolink" / "protected.py",
            PKG / "core" / "manager.py",
        ]:
            imported = imported_modules(module)
            assert any("runtime" in name.split(".") for name in imported), (
                f"{module.relative_to(SRC)} does not import the runtime"
            )

    def test_no_module_imports_shared_memory_machinery(self):
        """Shard tasks cross the process boundary as pickles only: no
        module creates shared-memory segments or touches the resource
        tracker that would have to police them."""
        forbidden = {
            "multiprocessing.shared_memory",
            "multiprocessing.resource_tracker",
        }
        for path in sorted(PKG.rglob("*.py")):
            found = imported_modules(path) & forbidden
            assert not found, (
                f"{path.relative_to(SRC)} imports {sorted(found)}"
            )

    def test_one_lru_memo_in_the_package(self):
        """Solved reflections have one memo, the process-wide
        ``core.solvecache``; the fused kernel keeps a one-entry table
        memo.  No other module may grow its own LRU beside them."""
        owner = PKG / "core" / "solvecache.py"
        for path in sorted(PKG.rglob("*.py")):
            if path == owner:
                continue
            assert "collections.OrderedDict" not in imported_modules(path), (
                f"{path.relative_to(SRC)} imports collections.OrderedDict"
            )

    def test_signals_imports_nothing_external_but_numpy_stack(self):
        """The substrate layer stays dependency-light (numpy/scipy only)."""
        stdlib_ok = {
            "numpy", "scipy", "math", "cmath", "itertools", "functools",
            "dataclasses", "typing", "enum", "collections", "abc",
            "__future__",
        }
        for path in modules_of("signals"):
            for name in imported_modules(path):
                top = name.split(".")[0]
                assert top in stdlib_ok | {"repro", "signals", ""}, (
                    f"{path.relative_to(SRC)} imports {name}"
                )


#: The physical fields of an iTDR: the capture kernel and the precision
#: are not configuration.
PHYSICAL_ITDR_FIELDS = {
    "clock_frequency", "phase_step", "repetitions", "noise_sigma",
    "comparator_offset", "coupling", "use_pdm", "pdm_amplitude",
    "pdm_vernier", "edge_rise_time", "edge_amplitude", "trigger",
    "record_margin", "phase_jitter_rms",
}


def test_reference_paths_live_in_tests():
    """Reference implementations kept only to be compared against live
    in ``tests/oracles.py``: no kernel switch or precision knob on the
    iTDR, no scalar lattice loop on the engine, and no ``dtype``
    parameter anywhere in the physics and capture layers."""
    import dataclasses

    from repro.core.itdr import ITDRConfig
    from repro.txline.propagation import LatticeEngine

    names = {f.name for f in dataclasses.fields(ITDRConfig)}
    assert names == PHYSICAL_ITDR_FIELDS
    assert not hasattr(LatticeEngine, "scalar_impulse_sequence")
    offenders = []
    for package in ("core", "txline", "signals"):
        for path in modules_of(package):
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    continue
                args = node.args
                params = args.posonlyargs + args.args + args.kwonlyargs
                if any(arg.arg == "dtype" for arg in params):
                    offenders.append(
                        f"{path.relative_to(SRC)}:{node.lineno} {node.name}"
                    )
    assert not offenders, offenders


def test_one_reference_ladder():
    """Every count path shares one ladder: the iTDR holds no separate
    PDM/APC pair, the fused kernel is built from the ladder alone, and
    the trial split and count-to-volt lookup are defined once, in
    ``core/apc.py``."""
    itdr_tree = ast.parse((PKG / "core" / "itdr.py").read_text())
    pair = [
        node.lineno for node in ast.walk(itdr_tree)
        if isinstance(node, ast.Attribute) and node.attr in ("pdm", "apc")
    ]
    assert not pair, f"core/itdr.py reads .pdm/.apc at lines {pair}"

    kernel_tree = ast.parse((PKG / "core" / "capturekernel.py").read_text())
    (init,) = [
        item
        for node in ast.walk(kernel_tree)
        if isinstance(node, ast.ClassDef) and node.name == "FusedCountKernel"
        for item in node.body
        if isinstance(item, ast.FunctionDef) and item.name == "__init__"
    ]
    params = [arg.arg for arg in init.args.args + init.args.kwonlyargs]
    assert params == ["self", "ladder", "repetitions", "budget"]

    defined: Dict[str, Set[str]] = {
        "trial_split": set(), "count_lookup": set(),
    }
    for path in sorted(PKG.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and node.name in defined:
                defined[node.name].add(str(path.relative_to(PKG)))
    assert defined == {
        "trial_split": {"core/apc.py"},
        "count_lookup": {"core/apc.py"},
    }
