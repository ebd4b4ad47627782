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

    def test_bad_space(self, dsl_file):
        with pytest.raises(SystemExit):
            main(["compile", dsl_file, "--space", "galactic"])

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
