"""The runtime imports numpy alone: scipy is loaded only by the two expm builds."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# A sys.meta_path finder that makes every scipy import fail.
REFUSE_SCIPY = textwrap.dedent('''
    import sys

    class RefuseScipy:
        def find_spec(self, name, path=None, target=None):
            if name == "scipy" or name.startswith("scipy."):
                raise ImportError(f"{name} is refused")
            return None

    sys.meta_path.insert(0, RefuseScipy())
''')


def run_fresh(code, cwd):
    """Run code in a new interpreter with this checkout's package first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code], cwd=cwd, env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_import_loads_no_scipy_and_the_number_build_loads_it_lazily(tmp_path):
    run_fresh(textwrap.dedent('''
        import sys

        import thermalwigner, thermalwigner.cli

        loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
        assert not loaded, loaded
        argv = ["verify", "--family", "number", "--n", "2", "--theta", "0.4", "--out", "number.json"]
        assert thermalwigner.cli.main(argv) == 0
        assert "scipy.linalg" in sys.modules
    '''), tmp_path)


def test_commands_run_with_scipy_refused(tmp_path):
    commands = [
        ["eval", "--family", "subtracted", "--n", "1", "--theta", "0.4", "--res", "21",
         "--out", "closed.csv"],
        ["eval", "--family", "subtracted", "--n", "1", "--theta", "0.4", "--res", "21",
         "--source", "oracle", "--out", "oracle.csv"],
        ["scan-theta", "--family", "number", "--n", "3", "--steps", "3", "--out", "scan.csv"],
        ["negativity", "--family", "number", "--n", "3", "--theta", "0.4"],
        ["verify", "--family", "added", "--n", "1", "--theta", "0.4", "--out", "added.json"],
        ["limits", "--out", "limits.json"],
    ]
    run_fresh(REFUSE_SCIPY + textwrap.dedent(f'''
        from thermalwigner import cli

        for argv in {commands!r}:
            assert cli.main(argv) == 0, argv
        assert not [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]
    '''), tmp_path)
    assert {p.name for p in tmp_path.iterdir()} == {
        "closed.csv", "oracle.csv", "scan.csv", "added.json", "limits.json",
    }
