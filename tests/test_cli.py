import os
import subprocess
import sys

import numpy as np
import pytest

from codenet import golden
from codenet.container import load_graph, read_image, save_graph, write_image
from codenet.graph import quantize_graph

from conftest import make_calib_images, make_tiny_graph

PKG_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_cli(*args, cwd=None):
    return subprocess.run([sys.executable, "-m", "codenet.cli", *args],
                          capture_output=True, text=True, cwd=cwd or PKG_ROOT)


@pytest.fixture
def fixture_dir(tmp_path):
    """fp32 model container plus calibration and test images."""
    g = make_tiny_graph(seed=8, deform=True)
    model = tmp_path / "model_fp32.cdnt"
    save_graph(str(model), g)
    calib = tmp_path / "calib"
    calib.mkdir()
    rng = np.random.default_rng(21)
    for i in range(2):
        write_image(str(calib / f"c{i}.img"),
                    rng.integers(0, 256, size=(16, 16, 3)).astype(np.uint8))
    write_image(str(tmp_path / "test.img"),
                rng.integers(0, 256, size=(16, 16, 3)).astype(np.uint8))
    write_image(str(tmp_path / "small.img"),
                rng.integers(0, 256, size=(8, 8, 3)).astype(np.uint8))
    return tmp_path


class TestBench:
    def test_table2_deterministic_bytes(self):
        args = ("bench", "--table2", "--dims", "16,16,16,16", "--seed", "1")
        a = run_cli(*args)
        b = run_cli(*args)
        assert a.returncode == 0
        assert a.stdout == b.stdout
        lines = [l for l in a.stdout.splitlines() if l and not l.startswith("#")]
        assert len(lines) == 1 + 16  # header + grid

    def test_table2_prints_speedups(self):
        out = run_cli("bench", "--table2", "--dims", "16,16,16,16", "--seed", "2").stdout
        assert "# speedup_dw=" in out

    def test_single_op_row(self):
        r = run_cli("bench", "--op", "dw_square", "--dims", "16,16,16,16", "--seed", "3")
        assert r.returncode == 0
        lines = r.stdout.splitlines()
        assert lines[0] == ("design,operation,llc,latency_ms,gops,dram_bytes,"
                            "llc_hits,llc_misses,buffer_hits,stalls")
        assert lines[1].split(",")[1] == "dw_square"

    def test_design_uses_the_seed_for_the_llc(self):
        # the 48x48x512 map overflows the LLC, so its replacement seed shows
        common = ("bench", "--op", "dw_deform", "--llc", "1", "--seed", "3", "--dims", "48,48,512,512")
        recipe = run_cli(*common)
        design = run_cli(*common, "--design", "llc")
        assert recipe.returncode == design.returncode == 0
        assert recipe.stdout == design.stdout

    def test_invalid_combination_exits_1(self):
        r = run_cli("bench", "--op", "dw_bound", "--design", "line_buffer_multiport",
                    "--dims", "16,16,16,16")
        assert r.returncode == 1

    @pytest.mark.parametrize("rows", ["0", "-3"])
    def test_line_buffer_without_rows_exits_1(self, rows):
        r = run_cli("bench", "--op", "dw_square", "--design", "line_buffer", "--rows", rows,
                    "--dims", "16,16,16,16")
        assert r.returncode == 1
        assert "line_buffer,dw_square" not in r.stdout

    def test_rows_without_design_exits_1(self):
        r = run_cli("bench", "--op", "dw_square", "--rows", "3", "--dims", "16,16,16,16")
        assert r.returncode == 1
        assert r.stderr.startswith("error:")
        assert r.stdout == ""

    def test_design_defaults_to_15_rows(self):
        common = ("bench", "--op", "dw_bound", "--design", "line_buffer", "--dims", "16,16,16,16")
        default = run_cli(*common)
        assert default.returncode == 0
        assert default.stdout == run_cli(*common, "--rows", "15").stdout

    def test_unknown_op_exits_1_naming_the_valid_ones(self):
        r = run_cli("bench", "--op", "dw_bogus", "--dims", "16,16,16,16")
        assert r.returncode == 1
        assert r.stdout == ""
        assert "full, dw" in r.stderr and "default, deform, bound, square" in r.stderr

    def test_bad_dims_exit_1(self):
        assert run_cli("bench", "--table2", "--dims", "16,16").returncode == 1

    @pytest.mark.parametrize("args", [
        ("--table2", "--dims", "0,64,256,256"),
        ("--table2", "--seed", "-1"),
        ("--op", "dw_bogus"),
        ("--op", "dw_square", "--dims", "0,64,256,256"),
        ("--op", "dw_deform", "--seed", "-1"),
        # these two overflow the LLC, so the grid would replay on its pool;
        # it rejects the seed and the dims before the pool starts
        ("--table2", "--dims", "128,128,256,256", "--seed", "-1"),
        ("--table2", "--dims=-128,-128,256,256"),
    ])
    def test_errors_print_no_header(self, args):
        r = run_cli("bench", *args)
        assert r.returncode == 1
        assert r.stdout == ""
        assert r.stderr.startswith("error:") and r.stderr.count("\n") == 1

    def test_negative_seed_is_named(self):
        r = run_cli("bench", "--table2", "--seed", "-5")
        assert r.returncode == 1
        assert r.stderr == "error: seed must be non-negative, got -5\n"


class TestCost:
    def test_config_c_values(self):
        r = run_cli("cost", "--config", "c", "--precision", "w4a8")
        assert r.returncode == 0
        macs_line = [l for l in r.stdout.splitlines() if l.startswith("macs")][0]
        macs_g = float(macs_line.split("(")[1].split()[0])
        assert abs(macs_g - 1.14) <= 0.114

    def test_config_d_fp32_size(self):
        r = run_cli("cost", "--config", "d", "--precision", "fp32")
        mb_line = [l for l in r.stdout.splitlines() if l.startswith("bytes")][0]
        mb = float(mb_line.split("(")[1].split()[0])
        assert abs(mb - 23.2) <= 2.32

    def test_per_layer_listing(self):
        r = run_cli("cost", "--config", "a", "--per-layer")
        assert "head_y" in r.stdout

    @pytest.mark.parametrize("classes", ["0", "-2"])
    def test_no_classes_exits_1(self, classes):
        r = run_cli("cost", "--config", "a", "--classes", classes)
        assert r.returncode == 1
        assert r.stderr.startswith("error: classes")
        assert r.stdout == ""

    def test_unallocatable_size_exits_1(self):
        # about 455 PB of head weights: beyond any 64-bit user address space,
        # so the request fails at once without touching memory
        r = run_cli("cost", "--config", "a", "--classes", "1000000000000000")
        assert r.returncode == 1
        assert r.stderr.startswith("error:") and r.stderr.count("\n") == 1
        assert "Traceback" not in r.stderr


class TestQuantizeInfer:
    def test_quantize_then_infer_deterministic(self, fixture_dir):
        model = str(fixture_dir / "model_fp32.cdnt")
        out = str(fixture_dir / "model_w4a8.cdnt")
        r = run_cli("quantize", model, out, "--calib", str(fixture_dir / "calib"))
        assert r.returncode == 0, r.stderr
        assert os.path.exists(out)

        img = str(fixture_dir / "test.img")
        a = run_cli("infer", out, img)
        b = run_cli("infer", out, img)
        assert a.returncode == 0, a.stderr
        assert a.stdout == b.stdout
        for line in a.stdout.splitlines():
            assert len(line.split()) == 6

    def test_quantize_rejects_quantized_input(self, fixture_dir, tmp_path):
        g = make_tiny_graph(seed=9)
        gq = quantize_graph(g, make_calib_images(16))
        qpath = str(tmp_path / "already.cdnt")
        save_graph(qpath, gq)
        r = run_cli("quantize", qpath, str(tmp_path / "out.cdnt"),
                    "--calib", str(fixture_dir / "calib"))
        assert r.returncode == 1
        assert "not fp32" in r.stderr

    def test_infer_rejects_wrong_resolution(self, fixture_dir):
        model = str(fixture_dir / "model_fp32.cdnt")
        out = str(fixture_dir / "m.cdnt")
        run_cli("quantize", model, out, "--calib", str(fixture_dir / "calib"))
        r = run_cli("infer", out, str(fixture_dir / "small.img"))
        assert r.returncode == 1
        assert "16x16" in r.stderr or "needs" in r.stderr

    def test_infer_rejects_fp32_container(self, fixture_dir):
        r = run_cli("infer", str(fixture_dir / "model_fp32.cdnt"), str(fixture_dir / "test.img"))
        assert r.returncode == 1
        assert "w4a8" in r.stderr

    def test_negative_top_k_exits_1(self, fixture_dir):
        out = str(fixture_dir / "m3.cdnt")
        run_cli("quantize", str(fixture_dir / "model_fp32.cdnt"), out, "--calib", str(fixture_dir / "calib"))
        r = run_cli("infer", out, str(fixture_dir / "test.img"), "--top-k", "-1")
        assert r.returncode == 1
        assert r.stderr.startswith("error: top_k")

    def test_score_threshold_filters(self, fixture_dir):
        model = str(fixture_dir / "model_fp32.cdnt")
        out = str(fixture_dir / "m2.cdnt")
        run_cli("quantize", model, out, "--calib", str(fixture_dir / "calib"))
        img = str(fixture_dir / "test.img")
        all_out = run_cli("infer", out, img).stdout
        none_out = run_cli("infer", out, img, "--score-thresh", "1.1").stdout
        assert none_out == ""
        assert len(all_out.splitlines()) >= len(none_out.splitlines())

    def test_heads_out_written(self, fixture_dir):
        model = str(fixture_dir / "model_fp32.cdnt")
        out = str(fixture_dir / "m3.cdnt")
        run_cli("quantize", model, out, "--calib", str(fixture_dir / "calib"))
        heads = str(fixture_dir / "heads.cdnt")
        r = run_cli("infer", out, str(fixture_dir / "test.img"), "--heads-out", heads)
        assert r.returncode == 0
        assert os.path.getsize(heads) > 0

    def test_zero_model_zero_image_score_threshold(self, tmp_path):
        # constant sigmoid(0) = 0.5 heatmap: top-100 peaks survive, then a
        # 0.6 threshold drops them all
        g = make_tiny_graph(seed=10)
        for n in g.nodes:
            if n.is_conv:
                n.w_fp = np.zeros_like(n.w_fp)
        model = str(tmp_path / "zero_fp32.cdnt")
        save_graph(model, g)
        calib = tmp_path / "calib"
        calib.mkdir()
        write_image(str(calib / "c0.img"), np.zeros((16, 16, 3), dtype=np.uint8))
        out = str(tmp_path / "zero_w4a8.cdnt")
        assert run_cli("quantize", model, out, "--calib", str(calib)).returncode == 0
        img = str(tmp_path / "zero.img")
        write_image(img, np.zeros((16, 16, 3), dtype=np.uint8))
        kept = run_cli("infer", out, img)
        assert kept.returncode == 0
        confs = {line.split()[5] for line in kept.stdout.splitlines()}
        assert confs == {"0.500000"}
        assert len(kept.stdout.splitlines()) == 32  # 4x4 head x 2 classes, all plateau peaks
        empty = run_cli("infer", out, img, "--score-thresh", "0.6")
        assert empty.returncode == 0 and empty.stdout == ""

    def test_full_scale_quantized_container_size(self, tmp_path):
        # the 1x network at 256x256: quantized payload lands near half a byte
        # per parameter (plus scales and header overhead)
        from codenet.graph import build_codenet
        g = build_codenet("a", classes=20, seed=0)
        model = str(tmp_path / "a_fp32.cdnt")
        save_graph(model, g)
        calib = tmp_path / "calib"
        calib.mkdir()
        rng = np.random.default_rng(3)
        write_image(str(calib / "c0.img"), rng.integers(0, 256, (256, 256, 3)).astype(np.uint8))
        out = str(tmp_path / "a_w4a8.cdnt")
        r = run_cli("quantize", model, out, "--calib", str(calib))
        assert r.returncode == 0, r.stderr
        size = os.path.getsize(out)
        assert 0.70e6 <= size <= 0.97e6


class TestGolden:
    def test_generate_then_verify(self, tmp_path):
        d = str(tmp_path / "vectors")
        assert run_cli("golden", "generate", d, "--seed", "3").returncode == 0
        r = run_cli("golden", "verify", d)
        assert r.returncode == 0, r.stdout
        assert "all exact" in r.stdout

    def test_corrupt_byte_detected(self, tmp_path):
        d = tmp_path / "vectors"
        run_cli("golden", "generate", str(d), "--seed", "4")
        victim = d / f"golden_{golden.OPS[0]}.cdnt"
        blob = bytearray(victim.read_bytes())
        blob[-1] ^= 0xFF  # flip one payload byte
        victim.write_bytes(bytes(blob))
        r = run_cli("golden", "verify", str(d))
        assert r.returncode == 2
        assert golden.OPS[0] in r.stdout

    def test_missing_vector_detected(self, tmp_path):
        d = tmp_path / "vectors"
        run_cli("golden", "generate", str(d), "--seed", "5")
        (d / f"golden_{golden.OPS[1]}.cdnt").unlink()
        assert run_cli("golden", "verify", str(d)).returncode == 2


@pytest.mark.parametrize("args", [
    ("infer", "{d}", "{d}/test.img"),
    ("quantize", "{d}", "{d}/out.cdnt", "--calib", "{d}/calib"),
    ("quantize", "{d}/model_fp32.cdnt", "{d}/out.cdnt", "--calib", "{d}/test.img"),
    ("infer", "{d}/model_w4a8.cdnt", "{d}/test.img", "--heads-out", "{d}/calib"),
    ("golden", "generate", "{d}/test.img"),
], ids=["infer-model-dir", "quantize-model-dir", "calib-file", "heads-out-dir",
        "golden-dir-is-file"])
def test_path_errors_exit_1(fixture_dir, args):
    g = load_graph(str(fixture_dir / "model_fp32.cdnt"))
    save_graph(str(fixture_dir / "model_w4a8.cdnt"), quantize_graph(g, make_calib_images(16)))
    r = run_cli(*(a.format(d=fixture_dir) for a in args))
    assert r.returncode == 1
    assert r.stderr.startswith("error:")
    assert "Traceback" not in r.stderr


def test_usage_error_exit_code():
    assert run_cli("no-such-command").returncode == 1
