"""tools/reach: the call recorder and the unreached-line counter agree
on a module whose reached and unreached functions are known."""

import importlib.util
import subprocess
import sys
import textwrap
from pathlib import Path

TOOLS = Path(__file__).parent.parent / "tools" / "reach"
_spec = importlib.util.spec_from_file_location("reach_count", TOOLS / "count.py")
count = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(count)

MODULE = textwrap.dedent(
    """\
    import functools


    def passthrough(function):
        return function


    @passthrough
    def called():
        def inner_called():
            return 1

        return inner_called()


    @functools.lru_cache
    def decorated_never_called():
        return 2


    class Holder:
        def method_never_called(self):
            return 3
    """
)


def test_counts_lines_of_functions_no_process_called(tmp_path, capsys):
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(MODULE)
    (package / "unused.py").write_text("X = 1\nY = 2\n")
    out = tmp_path / "out"
    out.mkdir()
    script = (
        f"import sys; sys.path[:0] = [{str(TOOLS)!r}, {str(tmp_path / 'src')!r}]\n"
        "import recorder; recorder.install()\n"
        "import pkg.mod; pkg.mod.called()\n"
    )
    env = {"REACH_OUT": str(out), "REACH_ROOT": str(tmp_path / "src")}
    subprocess.run([sys.executable, "-c", script], env=env, check=True, timeout=60)
    assert count.report(str(out), src=str(package), min_lines=1) == 0
    lines = capsys.readouterr().out.splitlines()
    # Unreached: the decorated function (lines 16-18), the method (22-23)
    # and the never-imported module (2 lines).  `called` counts from its
    # decorator, as the interpreter does, and ran with its nested
    # function; module and class bodies count as reached.
    assert lines[0] == f"7 of {len(MODULE.splitlines()) + 2} lines unreached"
    assert "| `pkg.mod` | 5 / 23 | `decorated_never_called`, `method_never_called` |" in lines
    assert "| `pkg.unused` | 2 / 2 | `<module>` |" in lines
