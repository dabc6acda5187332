"""Every name README.md gives in backticks as `mflqg.<module>.<name>` or
`<module>.<name>`, <module> a module of mflqg, resolves: prose that names a
renamed or deleted function or constant fails here.  File names such as
`phi.csv` do not match."""

import importlib
import pathlib
import pkgutil
import re

import mflqg

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = {info.name for info in pkgutil.iter_modules(mflqg.__path__)}
# A dotted name in backticks, maybe called: `simulate.evolve_cloud`,
# `mflqg._kernels.mc_chunk`, `Reduction.of(spec)`.
DOTTED = re.compile(r"`((?:mflqg\.)?(\w+)(?:\.\w+)+)(?:\([^`]*\))?`")


def _module_names(text: str) -> set:
    """The backticked dotted names of `text` that start at mflqg or at one
    of its modules."""
    return {m.group(1) for m in DOTTED.finditer(text)
            if m.group(1).startswith("mflqg.") or m.group(2) in MODULES}


def _unresolved(names) -> list:
    missing = []
    for name in sorted(names):
        module, *attrs = name.removeprefix("mflqg.").split(".")
        if module not in MODULES:
            missing.append(name)
            continue
        obj = importlib.import_module(f"mflqg.{module}")
        for attr in attrs:
            if not hasattr(obj, attr):
                missing.append(name)
                break
            obj = getattr(obj, attr)
    return missing


def test_the_pattern_finds_module_names_only():
    text = ("`mflqg.riccati`, `mflqg._kernels.mc_chunk`, `model.ProblemSpec`, "
            "`simulate.evolve_cloud(spec, law)`, `simulate._gone`, "
            "`mflqg.nowhere.f`, `phi.csv`, `red.problem`, `tests/test_cli.py`")
    names = _module_names(text)
    assert names == {"mflqg.riccati", "mflqg._kernels.mc_chunk",
                     "model.ProblemSpec", "simulate.evolve_cloud",
                     "simulate._gone", "mflqg.nowhere.f"}
    assert _unresolved(names) == ["mflqg.nowhere.f", "simulate._gone"]


def test_readme_names_resolve():
    names = _module_names((ROOT / "README.md").read_text())
    assert len(names) >= 10, sorted(names)
    assert _unresolved(names) == []
