"""What `import paraslice` does to a fresh interpreter: numpy's OpenBLAS
starts with one thread unless the user chose otherwise, the environment
reads as before, and the `analyze` path never loads the generator.  And
how a CLI process ends: `cli.entry` freezes the collector before exit,
writes what `cli.main` writes in process, and turns a closed standard
output into exit 3."""

import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import paraslice
from paraslice.cli import EXIT_BAD_CONFIG, EXIT_OK, EXIT_UNREADABLE, main

SRC = str(Path(__file__).resolve().parent.parent / "src")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
HAS_TASK_DIR = os.path.isdir("/proc/self/task")

# prints what the child saw after its imports: BLAS variables and threads
REPORT = """
import json, os, sys
print(json.dumps({
    "env": {v: os.environ.get(v) for v in %r},
    "threads": (len(os.listdir("/proc/self/task"))
                if os.path.isdir("/proc/self/task") else None),
    "synth": "paraslice.synth" in sys.modules,
}))
""" % (BLAS_VARS,)


def run_python(code, preset=None, flags=(), argv=()):
    """Run `code` in a fresh interpreter with paraslice importable, no BLAS
    thread variable set except those in `preset`."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env["PYTHONPATH"] = SRC
    env.update(preset or {})
    return subprocess.run([sys.executable, *flags, "-c", code, *argv],
                          env=env, capture_output=True, text=True,
                          timeout=120)


def report_after(imports, preset=None):
    proc = run_python(imports + REPORT, preset)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestBlasPin:
    def test_pin_leaves_no_variable_behind(self):
        got = report_after("import paraslice")
        assert got["env"] == dict.fromkeys(BLAS_VARS)

    @pytest.mark.skipif(not HAS_TASK_DIR, reason="no /proc/self/task")
    def test_one_thread_after_import(self):
        assert report_after("import paraslice")["threads"] == 1

    @pytest.mark.skipif(not HAS_TASK_DIR, reason="no /proc/self/task")
    def test_one_thread_after_a_matmul(self):
        got = report_after("import paraslice, numpy as np\n"
                           "a = np.ones((600, 600)); a @ a")
        assert got["threads"] == 1

    @pytest.mark.parametrize("var", ["OPENBLAS_NUM_THREADS",
                                     "OMP_NUM_THREADS"])
    def test_pin_skipped_when_user_sets_threads(self, var):
        got = report_after("import paraslice", {var: "2"})
        assert got["env"] == {**dict.fromkeys(BLAS_VARS), var: "2"}
        assert got == report_after("import numpy", {var: "2"})

    def test_numpy_imported_first_is_left_alone(self):
        baseline = report_after("import numpy")
        assert report_after("import numpy, paraslice") == baseline


class TestImportPath:
    def test_cli_does_not_load_the_generator(self):
        assert report_after("import paraslice.cli")["synth"] is False

    def test_no_warnings_on_import(self):
        proc = run_python("import paraslice", flags=("-W", "error"))
        assert proc.returncode == 0, proc.stderr

    def test_unknown_name_raises(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            paraslice.no_such_name

    def test_star_import_binds_all(self):
        namespace = {}
        exec("from paraslice import *", namespace)
        assert set(paraslice.__all__) <= set(namespace)

    def generate(self, scenario, tmp_path):
        """`paraslice generate` in a fresh interpreter, where the generator
        is first loaded by the command itself."""
        code = ("import sys; from paraslice.cli import main; "
                "sys.exit(main(sys.argv[1:]))")
        return run_python(code, argv=("generate", str(scenario), "--out",
                                      str(tmp_path / "out.prv")))

    def test_generate_missing_scenario(self, tmp_path):
        proc = self.generate(tmp_path / "nope.json", tmp_path)
        assert proc.returncode == EXIT_UNREADABLE, proc.stderr
        assert "cannot read" in proc.stderr

    @pytest.mark.parametrize("text", ['{"rank_count": 0}', "{not json"])
    def test_generate_invalid_scenario(self, tmp_path, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        proc = self.generate(bad, tmp_path)
        assert proc.returncode == EXIT_BAD_CONFIG, proc.stderr
        assert "invalid scenario" in proc.stderr


RING = {
    "name": "ring",
    "rank_count": 4,
    "seed": 1,
    "phases": [
        {"pattern": "ring_exchange", "iterations": 50,
         "compute": {"kind": "uniform", "mean_ns": 50000,
                     "jitter_ns": 10000},
         "message_bytes": 1024},
    ],
}
BROKEN_PIPE = "error: cannot write to standard output: broken pipe\n"


def run_cli(args, cwd, stdout=subprocess.PIPE, unbuffered=None):
    """`python -m paraslice.cli ARGS` in a fresh interpreter, with
    PYTHONUNBUFFERED set to `unbuffered` or unset."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = SRC
    if unbuffered is not None:
        env["PYTHONUNBUFFERED"] = unbuffered
    return subprocess.run([sys.executable, "-m", "paraslice.cli", *args],
                          cwd=cwd, env=env, stdout=stdout,
                          stderr=subprocess.PIPE, text=True, timeout=120)


def files(path):
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


class TestEntry:
    # each command runs in a directory of its own, on relative paths, so
    # a child and an in-process run print the same lines
    COMMANDS = {
        "analyze": ["analyze", "../ring.prv", "--out-dir", "."],
        "generate": ["generate", "../ring.json", "--out", "ring.prv",
                     "--expected"],
    }

    @pytest.fixture
    def work(self, tmp_path, monkeypatch):
        (tmp_path / "ring.json").write_text(json.dumps(RING))
        monkeypatch.chdir(tmp_path)
        assert main(["generate", "ring.json", "--out", "ring.prv"]) == EXIT_OK
        return tmp_path

    def in_process(self, work, command, capsys):
        """The command's outputs and stdout from cli.main in process."""
        capsys.readouterr()
        (work / "in").mkdir()
        os.chdir(work / "in")
        assert main(self.COMMANDS[command]) == EXIT_OK
        return files(work / "in"), capsys.readouterr().out

    @pytest.mark.parametrize("command", ["analyze", "generate"])
    def test_child_writes_what_main_writes(self, work, command, capsys):
        want, out = self.in_process(work, command, capsys)
        (work / "child").mkdir()
        proc = run_cli(self.COMMANDS[command], work / "child")
        assert proc.returncode == EXIT_OK, proc.stderr
        assert (proc.stdout, proc.stderr) == (out, "")
        assert files(work / "child") == want

    def test_main_leaves_the_collector_alone(self, work):
        before = (gc.get_freeze_count(), gc.isenabled())
        assert main(["analyze", "ring.prv", "--out-dir", "out"]) == EXIT_OK
        assert (gc.get_freeze_count(), gc.isenabled()) == before

    def test_entry_freezes_before_exit(self, work):
        code = ("import atexit, gc, sys\n"
                "atexit.register(lambda: print(gc.get_freeze_count(),"
                " file=sys.stderr))\n"
                "from paraslice.cli import entry\n"
                "sys.argv[1:] = ['analyze', 'ring.prv', '--out-dir', 'out']\n"
                "entry()")
        proc = subprocess.run([sys.executable, "-c", code], cwd=work,
                              env=dict(os.environ, PYTHONPATH=SRC),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == EXIT_OK, proc.stderr
        assert int(proc.stderr) > 0

    def test_console_script_is_entry(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(SRC).parent / "pyproject.toml"
        scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
        assert scripts == {"paraslice": "paraslice.cli:entry"}

    @pytest.mark.parametrize("unbuffered", [None, "1"])
    @pytest.mark.parametrize("command", ["analyze", "generate"])
    def test_closed_stdout_exits_unwritable(self, work, command, unbuffered,
                                            capsys):
        want, _ = self.in_process(work, command, capsys)
        (work / "child").mkdir()
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = run_cli(self.COMMANDS[command], work / "child",
                           stdout=write_end, unbuffered=unbuffered)
        finally:
            os.close(write_end)
        assert proc.returncode == EXIT_UNREADABLE
        assert proc.stderr == BROKEN_PIPE
        # the summary line comes last: every file is written by then
        assert files(work / "child") == want
