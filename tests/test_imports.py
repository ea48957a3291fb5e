"""The runtime imports numpy alone: no command, the number oracle included, loads scipy.

scipy stays installed for the tests, which use it as a reference, so the
first check runs commands with it importable and asserts that none of
them imported it; the second refuses every scipy import outright.  The
number kernel sums its own Laguerre series, so the last check asserts
that the number commands load no ``numpy.polynomial`` either.
"""

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


NUMBER_ORACLE_COMMANDS = [
    ["verify", "--family", "number", "--n", "2", "--theta", "0.4", "--out", "number.json"],
    ["eval", "--family", "number", "--n", "2", "--theta", "0.4", "--res", "21",
     "--source", "oracle", "--out", "number-oracle.csv"],
]


def test_number_oracle_commands_load_no_scipy(tmp_path):
    run_fresh(textwrap.dedent(f'''
        import importlib.util
        import sys

        import thermalwigner.cli

        assert importlib.util.find_spec("scipy") is not None
        for argv in {NUMBER_ORACLE_COMMANDS!r}:
            assert thermalwigner.cli.main(argv) == 0, argv
        loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
        assert not loaded, loaded
    '''), tmp_path)
    assert {p.name for p in tmp_path.iterdir()} == {"number.json", "number-oracle.csv"}


def test_commands_run_with_scipy_refused(tmp_path):
    commands = [
        ["eval", "--family", "subtracted", "--n", "1", "--theta", "0.4", "--res", "21",
         "--out", "closed.csv"],
        ["eval", "--family", "subtracted", "--n", "1", "--theta", "0.4", "--res", "21",
         "--source", "oracle", "--out", "oracle.csv"],
        ["scan-theta", "--family", "number", "--n", "3", "--steps", "3", "--out", "scan.csv"],
        ["negativity", "--family", "number", "--n", "3", "--theta", "0.4"],
        ["verify", "--family", "added", "--n", "1", "--theta", "0.4", "--out", "added.json"],
        *NUMBER_ORACLE_COMMANDS,
    ]
    run_fresh(REFUSE_SCIPY + textwrap.dedent(f'''
        from thermalwigner import cli

        for argv in {commands!r}:
            assert cli.main(argv) == 0, argv
        assert not [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]
    '''), tmp_path)
    assert {p.name for p in tmp_path.iterdir()} == {
        "closed.csv", "oracle.csv", "scan.csv", "added.json", "number.json", "number-oracle.csv",
    }


def test_number_commands_load_no_numpy_polynomial(tmp_path):
    # numpy.polynomial costs milliseconds to import; the kernel's
    # coefficients come from an integer table and its rows from a recurrence
    commands = [
        ["scan-theta", "--family", "number", "--n", "3", "--steps", "3", "--out", "scan.csv"],
        ["verify", "--family", "number", "--n", "2", "--theta", "0.4", "--out", "number.json"],
        ["eval", "--family", "number", "--n", "2", "--theta", "0.4", "--res", "21",
         "--out", "closed.csv"],
    ]
    run_fresh(textwrap.dedent(f'''
        import sys

        from thermalwigner import cli

        for argv in {commands!r}:
            assert cli.main(argv) == 0, argv
        loaded = sorted(m for m in sys.modules
                        if m == "numpy.polynomial" or m.startswith("numpy.polynomial."))
        assert not loaded, loaded
    '''), tmp_path)
    assert {p.name for p in tmp_path.iterdir()} == {"scan.csv", "number.json", "closed.csv"}
