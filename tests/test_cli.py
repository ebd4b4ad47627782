"""Tests for the command-line interface."""

import re
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.analysis.specs import load_kernel_sources
from repro.core.dse.cost_model import synthesize_variant
from repro.core.dsl.kernel_dsl import compile_kernel
from repro.core.variants import VariantKnobs

KERNEL = """
kernel scale(X: tensor<64xf32>, G: tensor<64xf32>)
        -> tensor<64xf32> {
  Y = relu(X * G)
  return Y
}
"""

QUICKSTART = str(Path(__file__).parents[1] / "examples" / "quickstart.py")
#: ``repro emit examples/quickstart.py --kernel score --what lowered-ir
#: --unroll 4``.
QUICKSTART_LOWERED_U4 = """\
builtin.module @kernels {
  func.func @score (%0: memref<256xf32>, %1: memref<256xf32>, %2: memref<256xf32>, %3: memref<256xf32>) -> () attributes {everest.sensitive_args = [2], lowered_from = "tensor"} {
    kernel.for {lower = 0, pipeline_ii = 1, step = 1, unroll = 4, upper = 256} {
      ^bb0(%4: index):
        %5 = kernel.load(%0, %4) : f32
        %6 = kernel.expf(%5) : f32
        %7 = kernel.load(%1, %4) : f32
        %8 = kernel.mulf(%6, %7) : f32
        %9 = kernel.load(%2, %4) : f32
        %10 = kernel.addf(%8, %9) : f32
        %11 = kernel.sigmoidf(%10) : f32
        kernel.store(%11, %3, %4)
        kernel.yield
    }
    func.return
  }
}
"""

#: ``repro synth examples/quickstart.py --kernel score --unroll U``.
QUICKSTART_SYNTH = {
    1: """\
kernel           : score
clock            : 250 MHz
latency          : 303 cycles (1.21 us)
units            : 1xfadd, 1xfmul, 2xspecial
resources        : FPGAResources(luts=4114, ffs=3290, bram_kb=9, dsps=21)
memory banks     : 4
dynamic power    : 0.26 W
""",
    4: """\
kernel           : score
clock            : 250 MHz
latency          : 111 cycles (0.44 us)
units            : 4xfadd, 4xfmul, 8xspecial
resources        : FPGAResources(luts=13864, ffs=11000, bram_kb=18, dsps=84)
memory banks     : 8
dynamic power    : 0.87 W
""",
}
#: ``repro emit examples/quickstart.py --kernel score --what rtl
#: --unroll 1`` with the value numbers dropped; at unroll 4 every
#: buffer has two banks.
QUICKSTART_RTL_U1 = """\
// pseudo-RTL generated by the EVEREST HLS engine
module score (
  input  wire clk,
  input  wire rst,
  input  wire start,
  output reg  done
  // memory interface: v: memref<256xf32> x1 banks
  // memory interface: v: memref<256xf32> x1 banks
  // memory interface: v: memref<256xf32> x1 banks
  // memory interface: v: memref<256xf32> x1 banks
);
  reg [2:0] state;
  always @(posedge clk) begin
    if (rst) state <= 0;
    else case (state)
      0: begin // wait start
        state <= 1;
      end
      1: begin // kernel.load; kernel.load; kernel.load
        state <= 2;
      end
      2: begin // kernel.expf
        state <= 3;
      end
      3: begin // kernel.mulf
        state <= 4;
      end
      4: begin // kernel.addf
        state <= 5;
      end
      5: begin // kernel.sigmoidf
        state <= 6;
      end
      6: begin // kernel.store
        state <= 7;
      end
      7: begin // assert done
        state <= 7;
      end
    endcase
  end
  always @(posedge clk) done <= (state == 7);
endmodule
"""


def quickstart_rtl(unroll):
    banks = {1: "x1 banks", 4: "x2 banks"}[unroll]
    return QUICKSTART_RTL_U1.replace("x1 banks", banks)


def without_value_numbers(text):
    return re.sub(r"v\d+", "v", text)


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

    @pytest.mark.parametrize("unroll", [1, 4])
    def test_synth_report_text(self, unroll, capsys):
        assert main(["synth", QUICKSTART, "--kernel", "score",
                     "--unroll", str(unroll)]) == 0
        assert capsys.readouterr().out == QUICKSTART_SYNTH[unroll]

    @pytest.mark.parametrize("unroll", [1, 4])
    def test_emit_rtl_text(self, unroll, capsys):
        """The RTL is built from the design's schedules when asked
        for, byte for byte what a design that always carried its FSMD
        printed."""
        assert main(["emit", QUICKSTART, "--kernel", "score",
                     "--what", "rtl", "--unroll", str(unroll)]) == 0
        out = without_value_numbers(capsys.readouterr().out)
        assert out == quickstart_rtl(unroll)

    @pytest.mark.parametrize("unroll", [1, 4])
    def test_interleave_leaves_the_quickstart_design(self, unroll):
        """``score`` has no accumulation: interleave 8 changes neither
        the report nor the RTL."""
        (source,) = load_kernel_sources(QUICKSTART)
        design = synthesize_variant(
            compile_kernel(source), "score",
            VariantKnobs(target="fpga", unroll=unroll, interleave=8))
        assert design.report() + "\n" == QUICKSTART_SYNTH[unroll]
        assert without_value_numbers(design.rtl()) + "\n" == \
            quickstart_rtl(unroll)

    def test_emit_lowered(self, dsl_file, capsys):
        assert main(["emit", dsl_file, "--kernel", "scale",
                     "--what", "lowered-ir"]) == 0
        out = capsys.readouterr().out
        assert "kernel.for" in out

    def test_emit_lowered_shows_the_loop_directives(self, capsys):
        """The HLS input with the directives HLS applies, byte for byte
        what the build that wrote them into the prepared module
        printed."""
        assert main(["emit", QUICKSTART, "--kernel", "score",
                     "--what", "lowered-ir", "--unroll", "4"]) == 0
        assert capsys.readouterr().out == QUICKSTART_LOWERED_U4

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
    ("service", ["service", "init", "--db", "{tmp}/jobs.db"],
     ["service", "cancel", "--db", "{tmp}/jobs.db"]),
] + [(argv.split()[0], None, argv.split()) for argv in (
    # a kernel the spec does not define, whatever --what shows
    "emit {spec} --kernel nope --what ir --no-cache",
    "emit {spec} --kernel nope --what lowered-ir --no-cache",
    "chaos --policy nope",
    # only `service init` and `service submit` create a job store
    "service status --db {tmp}/typo.db",
    "service launch --db {tmp}/typo.db",
    "service cancel --job 1 --db {tmp}/typo.db",
    "runs gc --journal-dir {tmp} --db {tmp}/typo.db",
    # flag values the library rejects
    "synth {spec} --kernel scale --unroll 0",
    "synth {spec} --kernel scale --unroll -3",
    "synth {spec} --kernel scale --clock-mhz 0",
    "synth {spec} --kernel scale --clock-mhz -5",
    "emit {spec} --kernel scale --what rtl --unroll -2",
    "emit {spec} --kernel scale --what lowered-ir --unroll 0",
    "run {spec} --journal-dir {tmp} --snapshot-every -1",
    "chaos --journal-dir {tmp} --snapshot-every -1",
)] + [("service " + argv.split()[0], None,
       ["service"] + argv.split() + ["--db", "{tmp}/jobs.db"])
      for argv in (
    # values a job or a launcher could never run with
    "submit --count 0",
    "submit --count -2",
    "submit --kind graph --tasks 0",
    "submit --kind chaos --pool 0",
    "submit --max-attempts 0",
    "launch --lease-size 0",
    "launch --heartbeat-every 0",
    "launch --lease-ttl 0",
    "launch --lease-ttl -1",
)]


@pytest.mark.parametrize(
    "command,setup,argv", USER_ERRORS,
    ids=["parse-error", "missing-file", "resume-ghost", "run-id-reuse",
         "bad-space", "unknown-kernel", "runs-show-no-id",
         "cancel-no-selector", "emit-ir-unknown-kernel",
         "emit-lowered-unknown-kernel", "chaos-unknown-policy",
         "status-no-store", "launch-no-store", "cancel-no-store",
         "runs-gc-no-store", "synth-unroll-0", "synth-unroll-negative",
         "synth-clock-0", "synth-clock-negative", "emit-rtl-unroll",
         "emit-lowered-unroll", "run-snapshot-every", "chaos-snapshot-every",
         "submit-count-0", "submit-count-negative", "submit-tasks-0",
         "submit-pool-0", "submit-max-attempts-0", "launch-lease-size-0",
         "launch-heartbeat-every-0", "launch-lease-ttl-0",
         "launch-lease-ttl-negative"],
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
    assert not (tmp_path / "typo.db").exists()
