import hashlib
import math
import re
import threading
from dataclasses import replace

import numpy as np
import pytest

from semrdp import DomainError, closed_form_rate, dsbs_model
from semrdp import cli_sweeper
from semrdp import verification
from semrdp.cli_sweeper import SweepConfig, main, max_workers, sweep_curve
from semrdp.verification import (
    SANDWICH_TOLERANCE,
    VerificationConfig,
    _sandwich_data,
    check_sandwich,
    run_verification,
    zero_rate_threshold,
)

INF = math.inf


def _closed_cfg(**overrides):
    base = dict(
        pi=0.5, q1=0.1, q2=0.1, a=0.2, b=0.2,
        axis="D", axis_min=0.05, axis_max=0.45, steps=9,
        fixed_P=0.05, methods=("closed_form",),
    )
    base.update(overrides)
    return SweepConfig(**base)


def test_sweep_curve_header_and_shape():
    text = sweep_curve(_closed_cfg())
    lines = text.splitlines()
    assert lines[0] == "D,P,R_closed"
    assert len(lines) == 10
    assert text.endswith("\n")
    assert not any(line.endswith(",") for line in lines)


def test_sweep_curve_deterministic():
    assert sweep_curve(_closed_cfg()) == sweep_curve(_closed_cfg())


def test_sweep_curve_infeasible_marker():
    lines = sweep_curve(_closed_cfg()).splitlines()[1:]
    first = lines[0].split(",")
    assert first[0] == "0.050000"
    assert first[2] == "inf"  # below the q = 0.1 noise floor
    last = lines[-1].split(",")
    assert last[2] == "0.000000"


def test_sweep_curve_p_axis_oracle_infeasible_marker():
    # D = 0.05 lies below the q = 0.1 distortion floor at every P
    cfg = _closed_cfg(axis="P", axis_min=0.0, axis_max=0.2, steps=5, fixed_D=0.05,
                      methods=("oracle",), resolution=0.05)
    lines = sweep_curve(cfg).splitlines()
    assert lines[0] == "D,P,R_oracle"
    assert [line.split(",")[2] for line in lines[1:]] == ["inf"] * 5


def test_sweep_curve_rows_sorted_by_axis():
    lines = sweep_curve(_closed_cfg()).splitlines()[1:]
    ds = [float(line.split(",")[0]) for line in lines]
    assert ds == sorted(ds)


def test_sweep_curve_p_axis():
    cfg = _closed_cfg(axis="P", axis_min=0.01, axis_max=0.21, steps=5, fixed_D=0.2)
    lines = sweep_curve(cfg).splitlines()
    assert lines[0] == "D,P,R_closed"
    rates = [float(line.split(",")[2]) for line in lines[1:]]
    assert all(b <= a + 1e-9 for a, b in zip(rates, rates[1:]))


def test_sweep_curve_observation_noise_ordering():
    curves = []
    for q in (0.0, 0.1, 0.2):
        cfg = _closed_cfg(q1=q, q2=q, axis_min=0.21, axis_max=0.45, steps=11,
                          fixed_P=INF)
        rates = [
            float(line.split(",")[2])
            for line in sweep_curve(cfg).splitlines()[1:]
        ]
        curves.append(rates)
    for low, high in zip(curves, curves[1:]):
        assert all(l <= h + 1e-9 for l, h in zip(low, high))


def test_sweep_curve_multi_method_header():
    cfg = _closed_cfg(methods=("oracle", "closed_form"), resolution=0.05,
                      axis_min=0.12, axis_max=0.3, steps=3)
    lines = sweep_curve(cfg).splitlines()
    assert lines[0] == "D,P,R_closed,R_oracle"  # canonical column order


def test_sweep_config_validation():
    with pytest.raises(DomainError):
        _closed_cfg(steps=1)
    with pytest.raises(DomainError):
        _closed_cfg(methods=())
    with pytest.raises(DomainError):
        _closed_cfg(methods=("nonsense",))
    with pytest.raises(DomainError):
        _closed_cfg(axis="Q")
    for fixed_d in (-0.1, math.nan):
        with pytest.raises(DomainError, match="distortion target D"):
            _closed_cfg(axis="P", fixed_D=fixed_d)
    _closed_cfg(fixed_D=-0.1)  # a D sweep never reads the fixed D
    for margin in (-0.01, math.nan, INF):
        with pytest.raises(DomainError, match=r"rate margin\(s\)"):
            _closed_cfg(methods=("simulate",), margin=margin)
        _closed_cfg(margin=margin)  # only a simulated column reads the margin


def _sandwich(cfg):
    """(passed, detail, max |closed - oracle|) of the sandwich check."""
    data = _sandwich_data(cfg)
    passed, detail = check_sandwich(cfg, data)
    gap = max(float(np.max(np.abs(closed - oracle))) for _, closed, oracle in data.values())
    return passed, detail, gap


def test_fault_injection_breaks_sandwich(monkeypatch):
    def shift_closed_form(bias):
        # the sandwich reads closed(D, P) and closed(D, inf) through this one
        # name, so the shift reaches both
        monkeypatch.setattr(verification, "closed_form_rate",
                            lambda model, D, P: closed_form_rate(model, D, P) + bias)

    small = VerificationConfig(q_values=(0.1,), p_values=(INF,), d_points=4)
    clean, detail, _ = _sandwich(small)
    assert clean, detail
    shift_closed_form(0.1)
    corrupted, _, gap = _sandwich(small)
    assert not corrupted
    assert gap > 0.05
    # unbiased, the binding P = 0.05 passes although the paper's middle
    # branch sits above the exact minimum by more than the tolerance
    monkeypatch.undo()
    binding, detail, gap = _sandwich(replace(small, p_values=(0.05,)))
    assert binding, detail
    assert gap > SANDWICH_TOLERANCE
    # a closed form that is too high or too low fails at a slack and at a
    # binding budget
    for p_val in (INF, 0.05):
        for bias in (0.1, -0.1):
            shift_closed_form(bias)
            corrupted, detail, _ = _sandwich(replace(small, p_values=(p_val,)))
            assert not corrupted, (p_val, bias, detail)


def test_zero_rate_threshold_quick(model_q01):
    threshold = zero_rate_threshold(model_q01, 0.05)
    assert threshold == pytest.approx(0.26, abs=0.015)


def _solver_cfg(axis):
    common = dict(pi=0.5, q1=0.1, q2=0.1, a=0.2, b=0.2, resolution=0.02, steps=41,
                  methods=("closed_form", "min2", "oracle"))
    if axis == "D":
        return SweepConfig(axis="D", fixed_P=0.05, **common)
    return SweepConfig(axis="P", axis_min=0.0, axis_max=0.5, fixed_D=0.25, **common)


@pytest.mark.parametrize("axis, digest", [
    ("D", "d9bc05c59481929cc062a2ee1a6c770c15f69cc7950bf4934274ea5ca1f74a05"),
    ("P", "e940ab7ffebcb9ef42b8174506328d3d847f1d34c40031c39ec957c7aae60fd6"),
])
def test_solver_sweeps_pinned_to_recorded_digests(axis, digest):
    # sha256 of the CSV as re-recorded when solve_min2 became an exact
    # solve; only R_min2 moved, never upward, and R_closed and R_oracle are
    # the columns recorded when the oracle became one
    text = sweep_curve(_solver_cfg(axis))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def _simulate_cfg(axis):
    common = dict(pi=0.5, q1=0.1, q2=0.1, a=0.2, b=0.2, steps=5, n=10, trials=10,
                  seed=7, margin=0.1, methods=("closed_form", "simulate"))
    if axis == "D":
        return SweepConfig(axis="D", axis_min=0.1, axis_max=0.4, fixed_P=0.05, **common)
    return SweepConfig(axis="P", axis_min=0.0, axis_max=0.5, fixed_D=0.25, **common)


@pytest.mark.parametrize("axis, digest", [
    ("D", "58aadf03d407638ac23f45f42bdbccbe1415d44338e0cf2710056e5698f1cfe8"),
    ("P", "3571fea3bcdcfafe3ed858904a76622c643f1cfce02182c9f320b134adc3ac90"),
])
def test_simulated_sweeps_pinned_to_recorded_digests(axis, digest):
    # sha256 of the CSV as recorded at 80efefd, when sweeps still ran in a
    # thread pool; the 0.1 margin leaves both finite and inf R_sim entries,
    # so the digest also pins which seed each point draws
    text = sweep_curve(_simulate_cfg(axis))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("axis", ["D", "P"])
def test_sweep_runs_in_the_calling_thread(axis, monkeypatch):
    threads = []

    def recorded(fn):
        def wrapper(*args, **kwargs):
            threads.append(threading.get_ident())
            return fn(*args, **kwargs)
        return wrapper

    for name in ("solve_min2", "oracle_min_rate", "random_binning_trial"):
        monkeypatch.setattr(cli_sweeper, name, recorded(getattr(cli_sweeper, name)))
    cfg = replace(_solver_cfg(axis), steps=4, n=10, trials=4,
                  methods=("closed_form", "min2", "oracle", "simulate"))
    sweep_curve(cfg)
    assert len(threads) >= 2 * cfg.steps
    assert set(threads) == {threading.get_ident()}


def test_max_workers_is_one(monkeypatch):
    for env in ("3", "zero"):
        monkeypatch.setenv("SEMRDP_THREADS", env)
        assert max_workers() == 1


def test_cli_curve_writes_csv(tmp_path):
    out = tmp_path / "curve.csv"
    code = main([
        "curve", "--q", "0.1", "--pi-x", "0.2", "--P", "0.05",
        "--d-min", "0.1", "--d-max", "0.3", "--steps", "5",
        "--methods", "closed_form", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "D,P,R_closed"
    assert len(lines) == 6


def test_cli_curve_runs_twice_identically(tmp_path):
    args = [
        "curve", "--q", "0.1", "--pi-x", "0.2", "--P", "inf",
        "--d-min", "0.0", "--d-max", "0.5", "--steps", "11",
        "--methods", "closed_form",
    ]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_conflicting_flags():
    assert main([
        "curve", "--q", "0.1", "--pi-x", "0.2", "--a", "0.3",
        "--methods", "closed_form",
    ]) == 2
    assert main(["curve", "--q", "0.1", "--methods", "closed_form"]) == 2


def test_cli_oracle_point(tmp_path):
    out = tmp_path / "oracle.csv"
    code = main([
        "oracle", "--q", "0.1", "--pi-x", "0.2", "--D", "0.26", "--P", "0.05",
        "--out", str(out),
    ])
    assert code == 0
    header, row = out.read_text().splitlines()
    assert header.startswith("D,P,R_oracle")
    assert float(row.split(",")[2]) <= 1e-3


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_cli_simulate_binning(tmp_path):
    # digests recorded at 8606283, before the decoder and binning runs
    # shared one trial loop
    args = ["simulate", "--q", "0.1", "--pi-x", "0.2", "--D", "0.2",
            "--margins", "0.2,0.4", "--n", "10", "--trials", "12", "--seed", "77"]
    out = tmp_path / "sim.csv"
    assert main(args + ["--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("n,trials,seed,rate_R1,rate_R2,empirical_D")
    assert len(lines) == 3
    assert all(int(line.split(",")[9]) == 0 for line in lines[1:])  # equal rates
    assert _sha256(out) == "bf268b681ed66189eb7f71f5defdf5b3bb8f00e8bb1d23e252da37f464348487"
    gap = tmp_path / "gap.csv"
    assert main(args + ["--r2-gap", "0.1", "--out", str(gap)]) == 0
    assert _sha256(gap) == "daf572850fdd36afd6ad443aca1c2125ff0030037aa1787f39d3b11be7df72f9"


def test_cli_simulate_plain_law(tmp_path):
    out = tmp_path / "law.csv"
    code = main([
        "simulate", "--q", "0.1", "--pi-x", "0.2", "--law", "1,1,0,0",
        "--n", "1000", "--trials", "4", "--seed", "5", "--out", str(out),
    ])
    assert code == 0
    row = out.read_text().splitlines()[1].split(",")
    assert float(row[5]) == pytest.approx(0.26, abs=0.05)
    # recorded at 8606283, like the binning digests
    assert _sha256(out) == "db494d561b950a5d7374e5bf772eb96ad595603fec474f95018333fc41e108e2"


_MODEL = ["--q", "0.1", "--pi-x", "0.2"]


_BAD_MARGIN = r"rate margin\(s\) must be finite and non-negative"


@pytest.mark.parametrize("argv, message", [
    (["simulate", *_MODEL, "--seed", "-1"], ""),
    (["simulate", *_MODEL, "--law", "1,1,0,0", "--seed", "-1"], ""),
    (["curve", *_MODEL, "--methods", "simulate", "--steps", "2", "--n", "10",
      "--trials", "2", "--seed", "-1"], ""),
    (["verify", "--quick", "--seed", "-1"], ""),
    (["simulate", *_MODEL, "--margins", "-0.1"], _BAD_MARGIN),
    (["simulate", *_MODEL, "--margins", "0.2,x"], ""),
    (["simulate", *_MODEL, "--law", "1,a,0,0"], ""),
    (["oracle", *_MODEL, "--D", "nan"], ""),
    (["curve", *_MODEL, "--axis", "P", "--D", "-0.1"], ""),
    # a curve margin is checked as simulate's are, before any binning run
    *((["curve", *_MODEL, "--methods", "closed_form,simulate", "--steps", "2",
        "--margin", margin], _BAD_MARGIN) for margin in ("-0.01", "nan", "inf")),
], ids=["simulate-seed", "law-seed", "curve-seed", "verify-seed", "negative-margin",
        "text-margin", "text-law", "nan-D", "negative-fixed-D", "negative-curve-margin",
        "nan-curve-margin", "inf-curve-margin"])
def test_cli_bad_input_is_a_usage_error(argv, message, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("semrdp: error: ") and err.count("\n") == 1
    assert re.search(message, err)


def test_cli_simulated_curve_runs_at_the_default_block_length():
    # the default --n is SweepConfig.n = 12, the block length of simulate and
    # criterion 8; at 10000 no positive-rate codebook fits the 2^24-word cap
    assert main(["curve", *_MODEL, "--d-min", "0.1", "--d-max", "0.3", "--steps", "3",
                 "--methods", "closed_form,simulate"]) == 0


def test_cli_config_file_merge(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("steps = 4\nd-max = 0.3  # comment\n")
    out = tmp_path / "merged.csv"
    code = main([
        "curve", "--config", str(cfg_file), "--q", "0.1", "--pi-x", "0.2",
        "--P", "inf", "--d-min", "0.1", "--methods", "closed_form",
        "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 5  # steps from the config file
    assert lines[-1].split(",")[0] == "0.300000"


@pytest.mark.parametrize("command, line", [
    (["curve", "--q", "0.1", "--pi-x", "0.2", "--methods", "closed_form"], "stpes = 4"),
    (["verify", "--quick"], "closed_form_bias = 0.1"),
])
def test_cli_config_rejects_unknown_keys(command, line, tmp_path, capsys):
    key = line.split()[0]
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"{line}\nseed = 7\n")
    assert main(command + ["--config", str(cfg_file)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("semrdp: error: ")
    assert key in captured.err and "seed" not in captured.err


@pytest.mark.parametrize("line, flag", [
    ("steps = 2.5", "--steps"), ("steps = 1e1", "--steps"), ("seed = 7.9", "--seed"),
    ("methods = 1", "methods"),
])
def test_cli_config_values_are_converted_by_the_flag_type(line, flag, tmp_path, capsys):
    # a config value is text, as on the command line: --steps 2.5 is a usage error too
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"{line}\n")
    try:
        code = main(["curve", *_MODEL, "--config", str(cfg_file)])
    except SystemExit as usage:  # argparse's own usage error
        code = usage.code
    assert code == 2
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize("value, quick", [("true", True), ("FALSE", False), ("0", None),
                                          ("no", None)])
def test_cli_config_no_value_flag_takes_only_true_or_false(value, quick, tmp_path,
                                                           monkeypatch, capsys):
    # --quick takes no value, so a config value is read as true or false and
    # any other text is a usage error, not a truthy string
    seen = []
    monkeypatch.setattr(cli_sweeper, "_cmd_verify", lambda args: seen.append(args.quick) or 0)
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"quick = {value}\n")
    code = main(["verify", "--config", str(cfg_file)])
    if quick is None:
        assert code == 2 and seen == []
        err = capsys.readouterr().err
        assert err.startswith("semrdp: error: quick ") and repr(value) in err
    else:
        assert code == 0 and seen == [quick]


def test_cli_simulated_rate_column(tmp_path):
    out = tmp_path / "sim_curve.csv"
    code = main([
        "curve", "--q", "0.1", "--pi-x", "0.2", "--P", "inf",
        "--d-min", "0.2", "--d-max", "0.3", "--steps", "3",
        "--methods", "closed_form,simulate", "--n", "10", "--trials", "10",
        "--seed", "3", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "D,P,R_closed,R_sim"
    model = dsbs_model(0.1, 0.2)
    first = lines[1].split(",")
    operating = closed_form_rate(model, 0.2, INF) + 0.4
    if first[3] != "inf":
        assert float(first[3]) == pytest.approx(operating, abs=1e-6)


def test_quick_verification_structure():
    cfg = VerificationConfig(
        q_values=(0.1,), p_values=(INF,), d_points=3,
        transform_laws=2, transform_n=5000, consistency_trials=2,
        consistency_n=2000, binning_trials=10, binning_margins=(0.2, 0.8),
        chain_joints=50,
    )
    summary = run_verification(cfg)
    assert [c.key for c in summary.criteria] == [f"criterion-{k}" for k in range(1, 10)]
    text = summary.to_text()
    assert "criterion-1" in text and "overall" in text
    csv = summary.to_csv()
    assert csv.splitlines()[0] == "q,P,D,R_closed,R_oracle"
    assert len(csv.splitlines()) == 1 + 3
    # sha256 of both artifacts as re-recorded when the oracle became an
    # exact solve; only the oracle's readings in criteria 1 and 3 and the
    # R_oracle column moved from the digests recorded at b330961
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "a268ab40418d55f906b09e8a02bb47a29991b71abb1bb345fdd00a815c65be06")
    assert hashlib.sha256(csv.encode()).hexdigest() == (
        "6feb297905cc088a1c0bcdd4bf3248ce4be690d77b6290e487199f4cad8afb62")
