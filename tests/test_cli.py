"""Tests for the command-line interface."""

import pytest

from repro.cli import main

KERNEL = """
kernel scale(X: tensor<64xf32>, G: tensor<64xf32>)
        -> tensor<64xf32> {
  Y = relu(X * G)
  return Y
}
"""


@pytest.fixture
def dsl_file(tmp_path):
    path = tmp_path / "k.edsl"
    path.write_text(KERNEL)
    return str(path)


class TestCLI:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "dialects" in out
        assert "tensor" in out

    def test_compile(self, dsl_file, capsys):
        assert main(["compile", dsl_file]) == 0
        out = capsys.readouterr().out
        assert "scale" in out
        assert "front" in out

    def test_synth(self, dsl_file, capsys):
        assert main(["synth", dsl_file, "--kernel", "scale",
                     "--unroll", "2"]) == 0
        out = capsys.readouterr().out
        assert "latency" in out
        assert "resources" in out

    def test_explore(self, dsl_file, capsys):
        assert main(["explore", dsl_file, "--kernel", "scale"]) == 0
        out = capsys.readouterr().out
        assert "cpu/t1" in out
        assert "fpga" in out

    def test_emit_ir(self, dsl_file, capsys):
        assert main(["emit", dsl_file, "--kernel", "scale"]) == 0
        out = capsys.readouterr().out
        assert "builtin.module" in out
        assert "tensor.relu" in out

    def test_emit_sycl(self, dsl_file, capsys):
        assert main(["emit", dsl_file, "--kernel", "scale",
                     "--what", "sycl"]) == 0
        out = capsys.readouterr().out
        assert "sycl::queue" in out

    def test_emit_rtl(self, dsl_file, capsys):
        assert main(["emit", dsl_file, "--kernel", "scale",
                     "--what", "rtl"]) == 0
        out = capsys.readouterr().out
        assert "module scale" in out

    def test_emit_lowered(self, dsl_file, capsys):
        assert main(["emit", dsl_file, "--kernel", "scale",
                     "--what", "lowered-ir"]) == 0
        out = capsys.readouterr().out
        assert "kernel.for" in out

    def test_bad_space(self, dsl_file, capsys):
        with pytest.raises(SystemExit) as caught:
            main(["compile", dsl_file, "--space", "galactic"])
        assert caught.value.code == 2
        assert "repro compile: error: argument --space: invalid choice" \
            in capsys.readouterr().err

    def test_missing_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_cache_stats_on_a_shared_directory(self, dsl_file, tmp_path,
                                               capsys):
        """One ``--cache-dir`` for everything: ``cache stats`` opens it
        once and files every entry under the kind that wrote it."""
        shared = str(tmp_path / "shared")
        assert main(["explore", dsl_file, "--kernel", "scale",
                     "--cache-dir", shared]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", shared]) == 0
        rows = dict(
            line.rsplit(None, 1)
            for line in capsys.readouterr().out.splitlines()
            if line[:1].isalpha() and len(line.split()) > 1
        )
        priced = int(rows["cost entries"])
        assert priced > 0 and int(rows["entries"]) == priced
        assert not any(name.startswith(("analysis", "perf"))
                       for name in rows)
        assert main(["cache", "clear", "--cache-dir", shared]) == 0
        assert capsys.readouterr().out.startswith(
            f"cleared {priced} cached entries")


def _exit_code(argv):
    """``main``'s exit code, whether returned or raised by argparse."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


#: ``(command, setup argv, failing argv)``; ``{spec}``, ``{bad}`` and
#: ``{tmp}`` are a good spec, one that does not parse and a scratch dir.
USER_ERRORS = [
    ("compile", None, ["compile", "{bad}"]),
    ("compile", None, ["compile", "{tmp}/missing.edsl"]),
    ("chaos", None, ["chaos", "--resume", "ghost", "--journal-dir", "{tmp}"]),
    ("chaos", ["chaos", "--run-id", "r", "--journal-dir", "{tmp}"],
     ["chaos", "--run-id", "r", "--journal-dir", "{tmp}",
      "--graph-seed", "7"]),
    ("compile", None, ["compile", "{spec}", "--space", "galactic"]),
    ("perf", None, ["perf", "{spec}", "--kernel", "nope", "--no-cache"]),
    ("runs", None, ["runs", "show", "--journal-dir", "{tmp}"]),
    ("service", None, ["service", "cancel", "--db", "{tmp}/jobs.db"]),
]


@pytest.mark.parametrize(
    "command,setup,argv", USER_ERRORS,
    ids=["parse-error", "missing-file", "resume-ghost", "run-id-reuse",
         "bad-space", "unknown-kernel", "runs-show-no-id",
         "cancel-no-selector"],
)
def test_a_user_error_is_one_coded_line(dsl_file, tmp_path, capsys,
                                        command, setup, argv):
    bad = tmp_path / "bad.edsl"
    bad.write_text("kernel broken(X: tensor<4xf32> {\n")
    fill = {"spec": dsl_file, "bad": str(bad), "tmp": str(tmp_path)}
    if setup:
        assert main([part.format(**fill) for part in setup]) == 0
        capsys.readouterr()
    assert _exit_code([part.format(**fill) for part in argv]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    [line] = [line for line in err.splitlines() if ": error: " in line]
    assert line.startswith(f"repro {command}: error: ")
