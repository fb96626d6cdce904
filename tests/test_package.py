"""The package's surface: the saturation modules keep their names, the
README's library sketch runs as it is printed, and the command line's
import loads no module it does not need."""

import ast
import pkgutil
import re
import subprocess
import sys
import types
from pathlib import Path

import smpds
import smpds.poststar as poststar_module
import smpds.prestar as prestar_module
from smpds import Configuration, PdsRule, Phase, SMPDS, from_configs


def test_prestar_and_poststar_name_their_modules():
    m = SMPDS({"p", "q"}, {"a"}, {0: PdsRule("p", "a", "q", ())})
    th = Phase.of([0])
    assert isinstance(prestar_module, types.ModuleType) and smpds.prestar is prestar_module
    assert isinstance(poststar_module, types.ModuleType) and smpds.poststar is poststar_module
    pre = prestar_module.prestar(m, from_configs(m, [Configuration("q", (), th)]))
    assert pre.accepts(Configuration("p", ("a",), th))
    post = poststar_module.poststar(m, from_configs(m, [Configuration("p", ("a",), th)]))
    assert post.accepts(Configuration("q", (), th))


def test_the_package_exports_no_submodule_name():
    submodules = {info.name for info in pkgutil.iter_modules(smpds.__path__)}
    assert {"prestar", "poststar", "translate", "model", "automaton"} <= submodules
    assert not submodules & set(smpds.__all__)
    assert all(hasattr(smpds, name) for name in smpds.__all__)


def test_the_readme_library_sketch_runs():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    sketch = re.search(r"## Library sketch\n\n```python\n(.*?)```", readme, re.S)
    *body, last = ast.parse(sketch.group(1)).body
    assert isinstance(last, ast.Expr)
    namespace: dict = {}
    exec(compile(ast.Module(body, type_ignores=[]), "README.md", "exec"), namespace)
    assert eval(compile(ast.Expression(last.value), "README.md", "eval"), namespace) is True


def test_importing_the_command_line_loads_neither_dataclasses_nor_inspect():
    # -S: no site hook's imports count; records are NamedTuples, so only a
    # stray import of `dataclasses` (which loads `inspect`) fails this
    src = Path(smpds.__file__).resolve().parent.parent
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import smpds.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    run = subprocess.run([sys.executable, "-S", "-c", code, str(src)],
                         capture_output=True, text=True, check=True)
    assert run.stdout == "[]\n"
