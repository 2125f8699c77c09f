import re

import numpy as np
import pytest

from satconv.bench import CSV_HEADER, run_bench
from satconv.boxes import BoxParams, init_params, save_boxes
from satconv.cli import main, render_boxes_svg
from satconv.gradcheck import format_report, run_gradcheck
from satconv.layer import BoxConvLayer
from satconv.oracle import DenseKernel
from satconv.train import ConfigError, parse_config


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gradcheck_passes_and_is_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "gradcheck", "--configs", "6", "--seed", "1")
    code2, out2, _ = run_cli(capsys, "gradcheck", "--configs", "6", "--seed", "1")
    assert code1 == code2 == 0
    assert out1 == out2
    assert "RESULT PASS" in out1


def test_gradcheck_perturbation_hook_fails_loudly(capsys, monkeypatch):
    """A wrong theta_xh gradient must fail the report, naming its category."""
    backward = BoxConvLayer.backward

    def skewed(self, saved, grad_output):
        grads = backward(self, saved, grad_output)
        grads.boxes.theta[..., 1] += 1e-2
        return grads

    monkeypatch.setattr(BoxConvLayer, "backward", skewed)
    code, out, _ = run_cli(capsys, "gradcheck", "--configs", "3")
    assert code == 1
    assert "RESULT FAIL" in out
    assert "theta_xh" in out.split("RESULT")[0]


def test_bench_csv_schema_and_equivalence(capsys):
    code, out, _ = run_cli(
        capsys, "bench", "--k", "7,13", "--size", "48x40", "--channels", "2",
        "--repeats", "2", "--seed", "3",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == CSV_HEADER
    rows = [line.split(",") for line in lines[1:]]
    assert {r[0] for r in rows} == {"box_sat", "box_bwd", "box_sat_build", "naive_dense",
                                    "dilated"}
    by_key = {(r[0], int(r[1])): r for r in rows}
    # bench draws the input, then the cotangent, from seed 3 and each k's boxes from 3 + k
    rng = np.random.default_rng(3)
    x = rng.normal(size=(2, 48, 40))
    cotangent = rng.normal(size=x.shape)
    for k in (7, 13):
        box_sum = float(by_key[("box_sat", k)][7])
        dense_sum = float(by_key[("naive_dense", k)][7])
        assert abs(box_sum - dense_sum) <= 1e-9 * max(abs(box_sum), abs(dense_sum))
        # the sum of the input gradient is <cotangent, forward(ones)>
        box_rng = np.random.default_rng(3 + k)
        layer = BoxConvLayer([init_params(k, rng=box_rng) for _ in range(2)])
        want = float(np.vdot(cotangent, layer.forward(np.ones(x.shape))[0]))
        assert by_key[("box_bwd", k)][6] == "0"
        assert abs(float(by_key[("box_bwd", k)][7]) - want) <= 1e-9 * abs(want)


@pytest.mark.parametrize("argv", [
    ("bench", "--repeats", "0"),
    ("bench", "--size", "256"),
    ("bench", "--k", "4"),
    ("gradcheck", "--sizes", "8"),
    ("gradcheck", "--k", "4"),
    ("gradcheck", "--strides", "0"),
    ("gradcheck", "--tolerance", "nan"),  # every comparison with nan passes
    ("gradcheck", "--tolerance", "0"),
    ("bench", "--seed", "-1"),
])
def test_bad_arguments_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        main(list(argv))
    captured = capsys.readouterr()
    assert exit_info.value.code == 2
    assert captured.out == ""
    assert f"argument {argv[1]}" in captured.err


def test_bench_rejects_no_repeats():
    with pytest.raises(ValueError, match="repeats"):
        run_bench([13], 16, 16, repeats=0)


def test_bench_dilated_parity_at_k13():
    rows = run_bench([13], 32, 32, channels=1, repeats=1, seed=0)
    by_method = {r.method: r for r in rows}
    assert by_method["dilated"].multadds == by_method["box_sat"].multadds
    assert DenseKernel(np.ones((4, 4)), dilation=4).receptive_extent() == 13


def test_export_boxes_roundtrip(tmp_path, capsys):
    rng = np.random.default_rng(0)
    boxes = [BoxParams(-1, 1, -1, 1, 9)] + [init_params(9, rng=rng) for _ in range(3)]
    ckpt = tmp_path / "boxes.txt"
    save_boxes(ckpt, boxes)
    out_a = tmp_path / "a.svg"
    out_b = tmp_path / "b.svg"
    code, msg, _ = run_cli(capsys, "export-boxes", str(ckpt), str(out_a))
    assert code == 0 and "4 boxes" in msg
    run_cli(capsys, "export-boxes", str(ckpt), str(out_b))
    assert out_a.read_bytes() == out_b.read_bytes()
    assert out_a.read_text().startswith("<svg")


def test_export_full_window_box_fills_tile():
    svg = render_boxes_svg([BoxParams(-1, 1, -1, 1, 13)], tile=80.0, gap=10.0)
    # coverage rectangle spans the whole 80-unit tile
    assert 'width="80.0000" height="80.0000" fill="#4d88ff"' in svg


def test_export_fresh_init_stays_central(rng):
    """Uniform init keeps every rectangle inside the middle of its window:
    edge offsets within half the radius, coverage one pixel past."""
    boxes = [init_params(13, rng=rng) for _ in range(16)]
    svg = render_boxes_svg(boxes, tile=78.0, gap=0.0)  # tile = 6 px per lattice unit
    r = 6.0
    lo_px = (-r / 2 + r) / 13.0 * 78.0
    hi_px = (r / 2 + 1 + r) / 13.0 * 78.0
    col_pitch, row_pitch = 78.0, 78.0 + 12.0  # 12-unit label band below each tile
    for m in re.finditer(r'<rect x="([\d.]+)" y="([\d.]+)" width="([\d.]+)" '
                         r'height="([\d.]+)" fill="#4d88ff"', svg):
        x, y, w, h = (float(v) for v in m.groups())
        col = int(x // col_pitch)
        row = int(y // row_pitch)
        assert x - col * col_pitch >= lo_px - 1e-6
        assert x - col * col_pitch + w <= hi_px + 1e-6
        assert y - row * row_pitch >= lo_px - 1e-6
        assert y - row * row_pitch + h <= hi_px + 1e-6


def test_export_boxes_bad_checkpoint(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("gibberish line\n")
    code, _, err = run_cli(capsys, "export-boxes", str(bad), str(tmp_path / "o.svg"))
    assert code == 2
    assert "error" in err


def test_train_minimal_config(tmp_path, capsys):
    cfg = tmp_path / "mini.cfg"
    cfg.write_text(
        "task keypoints\nsteps 100\nchannels 4\nblocks box9\nbatch 1\n"
        f"eval_every 50\neval_samples 4\nfinal_eval_samples 8\nout {tmp_path/'run'}\n"
    )
    code, out, _ = run_cli(capsys, "train", str(cfg))
    assert code == 0
    log = (tmp_path / "run" / "log.csv").read_text().splitlines()
    assert log[0] == "step,loss,accuracy"
    assert len(log) == 101
    assert (tmp_path / "run" / "boxes.txt").exists()


def test_train_rejects_even_kernel_before_running(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("task keypoints\nsteps 5\nblocks box8\n")
    code, _, err = run_cli(capsys, "train", str(cfg))
    assert code == 2
    assert "odd" in err
    assert not (tmp_path / "bad_run").exists()


_KEYPOINTS = "task keypoints\nsteps 2\n"
_KERNEL = "task kernel_approx\nsteps 2\n"


@pytest.mark.parametrize("text, key", [
    (_KEYPOINTS + "seed -1\n", "seed"),
    (_KEYPOINTS + "lr 0\n", "lr"),
    (_KERNEL + "lr nan\n", "lr"),
    (_KEYPOINTS + "noise nan\n", "noise"),
    (_KEYPOINTS + "eval_every 0\n", "eval_every"),
    (_KEYPOINTS + "batch 0\n", "batch"),
    (_KEYPOINTS + "eval_samples 0\n", "eval_samples"),
    (_KEYPOINTS + "final_eval_samples 0\n", "final_eval_samples"),
    (_KEYPOINTS + "image_size 8\n", "image_size"),  # a blob needs 4 px of margin
    (_KEYPOINTS + "channels 0\n", "channels"),
    (_KEYPOINTS + "blocks dense3,boxa\n", "blocks"),
    (_KEYPOINTS + "sigma 0\n", "sigma"),  # an all-zero heatmap target
    (_KERNEL + "k 7\ntarget log\n", "k"),  # the LoG target's support is 9
    (_KERNEL + "k 5\ntarget box\ntarget_box -3 1 -1 2\n", "target_box"),
    (_KERNEL + "target box\ntarget_box 1 2 3\n", "target_box"),
    (_KERNEL + "image_size 0\n", "image_size"),
    (_KERNEL + "log_sigma 0\n", "log_sigma"),
])
def test_train_rejects_config_that_would_crash(tmp_path, capsys, text, key):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text + f"out {tmp_path / 'run'}\n")
    with pytest.raises(ConfigError, match=re.escape(f"{cfg}: {key}")):
        parse_config(cfg)
    code, out, err = run_cli(capsys, "train", str(cfg))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {cfg}: {key}")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("name", ["keypoints_32", "kernel_box", "kernel_log"])
def test_canonical_configs_parse(name):
    assert parse_config(f"scripts/configs/{name}.cfg").steps > 0


def test_train_missing_config(capsys):
    code, _, err = run_cli(capsys, "train", "/does/not/exist.cfg")
    assert code == 2


def test_gradcheck_split_gradients_are_nonzero():
    """Split gradients cancel when every sub-box weighs the same; the drawn
    configs must give them something to check."""
    rep = run_gradcheck(seed=0, n_configs=12)
    assert rep.passed
    assert rep.n_nonzero["split_x"] > 0 and rep.n_nonzero["split_y"] > 0
    assert rep.n_nonzero["weight"] > 0
    assert f"nonzero={rep.n_nonzero['split_x']}" in format_report(rep, 0)
