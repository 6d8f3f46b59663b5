import json
import subprocess
import sys

import pytest

from smclab import InvalidConfig
from smclab.experiments import (
    beta_table_text,
    default_config,
    load_config,
    parse_report_csv,
    report_to_csv,
    report_to_json,
    run_clt,
    run_compare_resamplers,
    run_conjecture2,
    run_experiment,
    run_variance_step0,
    validate_config,
)

FLAT_MODEL = {
    "name": "flat",
    "initial": {"law": "uniform", "lo": 0.0, "hi": 1.0},
    "kernel": {"kind": "uniform_shift", "lo": 0.0, "hi": 1.0},
    "g": {"form": "poly", "coeffs": [2.0]},
    "f": {"form": "poly", "coeffs": [0.0, 1.0]},
}


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------

def test_defaults_and_overrides():
    cfg = default_config("variance-step0")
    assert (cfg.particles, cfg.replicates, cfg.replicates2) == (2000, 100_000, 10_000)
    cfg = default_config("conjecture2", particles=512, seed=9)
    assert cfg.particles == 512 and cfg.seed == 9 and cfg.replicates == 10_000
    with pytest.raises(InvalidConfig):
        default_config("bogus")


def test_load_config_schema(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "schema": 1, "experiment": "conjecture2", "particles": 300,
        "replicates": 150, "step": 2, "tuple_size": 1, "seed": 5,
    }))
    cfg = load_config(path, seed=6)
    assert cfg.experiment == "conjecture2"
    assert cfg.particles == 300 and cfg.seed == 6 and cfg.step == 2

    path.write_text(json.dumps({"schema": 2, "experiment": "clt"}))
    with pytest.raises(InvalidConfig):
        load_config(path)
    path.write_text(json.dumps({"schema": 1, "experiment": "clt", "particules": 5}))
    with pytest.raises(InvalidConfig):
        load_config(path)
    path.write_text(json.dumps({"schema": 1}))
    with pytest.raises(InvalidConfig):
        load_config(path)


def test_validate_config_invariants():
    with pytest.raises(InvalidConfig):
        validate_config(default_config("variance-step0", replicates=50))
    with pytest.raises(InvalidConfig):
        validate_config(default_config("variance-step0", particles=3))
    with pytest.raises(InvalidConfig):
        validate_config(default_config("conjecture2", step=3))
    with pytest.raises(InvalidConfig):
        validate_config(default_config("conjecture2", tuple_size=0))
    with pytest.raises(InvalidConfig):
        validate_config(default_config("conjecture1", model=FLAT_MODEL))
    with pytest.raises(InvalidConfig):
        validate_config(default_config("clt", format="yaml"))
    with pytest.raises(InvalidConfig):
        validate_config(default_config("clt", seed=-1))
    with pytest.raises(InvalidConfig):
        validate_config(default_config("variance-step0", replicates2=1))
    validate_config(default_config("variance-step0", model=FLAT_MODEL, particles=300,
                                   replicates=200, replicates2=200))


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def test_csv_round_trip():
    cfg = default_config("variance-step0", particles=300, replicates=400,
                         replicates2=400, seed=3, timing=False)
    report = run_variance_step0(cfg)
    text = report_to_csv(report)
    assert text.splitlines()[0] == "experiment,quantity,estimate,ci_lo,ci_hi,n_samples,particles,seed,wall_time_s"
    assert parse_report_csv(text) == report.rows
    payload = json.loads(report_to_json(report))
    assert payload["verdict"] == report.verdict
    assert len(payload["rows"]) == len(report.rows)


def test_rows_carry_cis_and_metadata():
    cfg = default_config("conjecture2", particles=300, replicates=200, seed=1, timing=False)
    report = run_conjecture2(cfg)
    for row in report.rows:
        assert row.ci_lo <= row.estimate <= row.ci_hi
        assert row.particles == 300 and row.seed == 1 and row.wall_time_s == 0.0
    assert report.verdict is not None


def test_timing_field_populated_when_enabled():
    cfg = default_config("conjecture2", particles=300, replicates=200, seed=1, timing=True)
    report = run_conjecture2(cfg)
    assert all(row.wall_time_s > 0.0 for row in report.rows)
    assert parse_report_csv(report_to_csv(report)) == report.rows


def test_tasks_pickle_after_use():
    """A task whose model cache was populated locally must still ship to workers."""
    import pickle

    from smclab._engine import SelectedSumTask, stream_rng

    task = SelectedSumTask("section7", 50, step=1)
    task(4, stream_rng(0, 0, 0))  # populates the local model cache
    clone = pickle.loads(pickle.dumps(task))
    assert clone == task


# ---------------------------------------------------------------------------
# worker-count invariance (small scale; full matrix in the acceptance suite)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("experiment,extra", [
    ("variance-step0", dict(replicates=600, replicates2=400)),
    ("conjecture2", dict(replicates=600, step=1, tuple_size=2)),
])
def test_worker_invariance(experiment, extra):
    reports = []
    for workers in (1, 3):
        cfg = default_config(experiment, particles=400, seed=17, timing=False,
                             workers=workers, **extra)
        reports.append(report_to_csv(run_experiment(cfg)))
    assert reports[0] == reports[1]


# ---------------------------------------------------------------------------
# individual runners (spot checks; statistical targets live in acceptance)
# ---------------------------------------------------------------------------

def test_compare_resamplers_equal_weights():
    cfg = default_config("compare-resamplers", model=FLAT_MODEL, particles=64,
                         replicates=2000, seed=2, timing=False)
    report = run_compare_resamplers(cfg)
    for kind in ("stratified", "residual", "systematic"):
        assert abs(report.row(f"{kind}_exact").estimate) < 1e-12
        assert abs(report.row(f"{kind}_mc").estimate) < 1e-12
    assert report.row("multinomial_exact").estimate > 0.01
    assert report.verdict is True


def test_clt_runner_small(model):
    cfg = default_config("clt", particles=2000, replicates=1000, replicates2=4000,
                         seed=3, timing=False)
    report = run_clt(cfg)
    stat = report.row("ks_statistic").estimate
    assert 0.0 < stat < 0.1
    assert report.row("sigma_total").estimate == pytest.approx(0.3455, abs=0.01)


def test_beta_table_grids():
    text = beta_table_text("beta0", points=5)
    lines = text.strip().splitlines()
    assert lines[0] == "x,y1,value"
    assert len(lines) == 1 + 25
    text = beta_table_text("beta1", points=3)
    assert text.splitlines()[0] == "x,y1,y2,y3,value"
    text = beta_table_text("phi0", points=4)
    assert text.splitlines()[0] == "x,value"
    text = beta_table_text("phik", points=3)
    assert text.splitlines()[0] == "x,y1,y2,value"
    with pytest.raises(InvalidConfig):
        beta_table_text("bogus")


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def _run_cli(*args):
    return subprocess.run([sys.executable, "-m", "smclab.cli", *args],
                          capture_output=True, text=True)


def test_cli_end_to_end(tmp_path):
    out = tmp_path / "report.csv"
    proc = _run_cli("variance-step0", "--particles", "300", "--replicates", "400",
                    "--replicates2", "300", "--seed", "4", "--workers", "1",
                    "--no-timing", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    rows = parse_report_csv(out.read_text())
    assert rows[0].experiment == "variance-step0"
    assert "# verdict" in proc.stderr


def test_cli_config_and_errors(tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({
        "schema": 1, "experiment": "beta-table", "table_kind": "phi0", "table_points": 4,
    }))
    proc = _run_cli("beta-table", "--config", str(cfgfile))
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "x,value"

    proc = _run_cli("clt", "--config", str(cfgfile))
    assert proc.returncode == 1  # experiment mismatch

    cfgfile.write_text(json.dumps({"schema": 1, "experiment": "clt", "bad_field": 1}))
    proc = _run_cli("clt", "--config", str(cfgfile))
    assert proc.returncode == 1

    proc = _run_cli("variance-step0", "--replicates", "10")
    assert proc.returncode == 1

    # bad input fails before any stream runs, with a message and no traceback
    cfgfile.write_text('{"schema": 1, "experiment": "clt", "par')
    bad_inputs = [
        ("clt", "--config", str(cfgfile)),
        ("variance-step0", "--seed", "-1", "--particles", "300", "--replicates", "200"),
        ("variance-step1", "--particles", "300", "--replicates", "200", "--replicates2", "1"),
    ]
    for args in bad_inputs:
        proc = _run_cli(*args)
        assert proc.returncode == 1, args
        assert "error:" in proc.stderr and "Traceback" not in proc.stderr, proc.stderr
