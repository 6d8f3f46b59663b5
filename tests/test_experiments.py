import json
import subprocess
import sys

import pytest

from smclab import InvalidConfig, InvalidModel
from smclab.experiments import (
    ExperimentConfig,
    beta_table_text,
    default_config,
    load_config,
    report_to_csv,
    report_to_json,
    run_experiment,
    sigma2_sq,
    validate_config,
)

from conftest import parse_report_csv

FLAT_MODEL = {
    "name": "flat",
    "initial": {"law": "uniform", "lo": 0.0, "hi": 1.0},
    "kernel": {"kind": "uniform_shift", "lo": 0.0, "hi": 1.0},
    "g": {"form": "poly", "coeffs": [2.0]},
    "f": {"form": "poly", "coeffs": [0.0, 1.0]},
}
# the smallest change of FLAT_MODEL that the limit experiments accept
SLOPED_MODEL = {**FLAT_MODEL, "name": "sloped", "g": {"form": "poly", "coeffs": [1.0, 0.5]}}


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
    with pytest.raises(InvalidConfig):
        validate_config(default_config("beta-table", format="json"))
    with pytest.raises(InvalidConfig):
        validate_config(default_config("clt", table_points=5))
    # JSON values of the wrong type
    wrong_types = [
        ("clt", dict(workers="2")),
        ("clt", dict(particles="300")),
        ("clt", dict(seed=1.5)),
        ("compare-resamplers", dict(particles=300.5)),
        ("conjecture2", dict(step=True)),
        ("clt", dict(timing=1)),
        ("clt", dict(format=None)),
        ("beta-table", dict(table_kind=0)),
        ("beta-table", dict(table_points=4.0)),
        ("clt", dict(out=5)),
        ("clt", dict(model=7)),
    ]
    for experiment, fields in wrong_types:
        with pytest.raises(InvalidConfig):
            validate_config(default_config(experiment, **fields))
    # a constant potential leaves every fractional part at 0: outside the limit split
    for experiment in ("variance-step0", "variance-step1", "clt", "conjecture1", "conjecture2"):
        with pytest.raises(InvalidConfig, match="not constant"):
            validate_config(default_config(experiment, model=FLAT_MODEL))
    validate_config(default_config("compare-resamplers", model=FLAT_MODEL))
    validate_config(default_config("variance-step0", model=SLOPED_MODEL, particles=300,
                                   replicates=200, replicates2=200))
    # a misspelled model-table key
    with pytest.raises(InvalidModel, match="rat"):
        validate_config(default_config("clt", model={"g": {"form": "exp", "rat": 3}}))


def test_validate_config_rejects_unread_fields():
    """A config built directly is held to the fields its experiment reads,
    and only those are type-checked."""
    with pytest.raises(InvalidConfig, match="does not read"):
        validate_config(ExperimentConfig("conjecture1", particles=300, replicates=200,
                                         replicates2=1, step=7))
    with pytest.raises(InvalidConfig, match="does not read"):
        validate_config(ExperimentConfig("compare-resamplers", particles=300,
                                         replicates=200, workers=1))
    validate_config(ExperimentConfig("compare-resamplers", particles=300, replicates=200))
    validate_config(ExperimentConfig("beta-table", table_kind="phi0"))
    with pytest.raises(InvalidConfig, match="particles must be an integer"):
        validate_config(ExperimentConfig("compare-resamplers", replicates=200))


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def test_csv_round_trip():
    cfg = default_config("variance-step0", particles=300, replicates=400,
                         replicates2=400, seed=3, timing=False)
    report = run_experiment(cfg)
    text = report_to_csv(report)
    assert text.splitlines()[0] == "experiment,quantity,estimate,ci_lo,ci_hi,n_samples,particles,seed,wall_time_s"
    assert parse_report_csv(text) == report.rows
    payload = json.loads(report_to_json(report))
    assert payload["verdict"] == report.verdict
    assert len(payload["rows"]) == len(report.rows)


def test_rows_carry_cis_and_metadata():
    cfg = default_config("conjecture2", particles=300, replicates=200, seed=1, timing=False)
    report = run_experiment(cfg)
    for row in report.rows:
        assert row.ci_lo <= row.estimate <= row.ci_hi
        assert row.particles == 300 and row.seed == 1 and row.wall_time_s == 0.0
    assert report.verdict is not None


def test_timing_field_populated_when_enabled():
    cfg = default_config("conjecture2", particles=300, replicates=200, seed=1, timing=True)
    report = run_experiment(cfg)
    assert all(row.wall_time_s > 0.0 for row in report.rows)
    assert parse_report_csv(report_to_csv(report)) == report.rows


def test_tasks_pickle_after_use():
    """A task holds only its model reference and primitives, so it still
    ships to workers after a local call."""
    import pickle

    from smclab._engine import SelectedSumTask, stream_rng

    task = SelectedSumTask("section7", 50, step=1)
    task(4, stream_rng(0, 0, 0))
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
    report = run_experiment(cfg)
    for kind in ("stratified", "residual", "systematic"):
        assert abs(report.row(f"{kind}_exact").estimate) < 1e-12
        assert abs(report.row(f"{kind}_mc").estimate) < 1e-12
    assert report.row("multinomial_exact").estimate > 0.01
    assert report.verdict is True


def test_clt_runner_small(model):
    cfg = default_config("clt", particles=2000, replicates=1000, replicates2=4000,
                         seed=3, timing=False)
    report = run_experiment(cfg)
    stat = report.row("ks_statistic").estimate
    assert 0.0 < stat < 0.1
    assert report.row("sigma_total").estimate == pytest.approx(0.3455, abs=0.01)


def test_runners_report_the_one_sigma2_route(model):
    """variance-step0 and clt report sigma2_sq's own estimate, bit for bit."""
    limit = sigma2_sq("section7", 300, seed=4)
    step0 = run_experiment(default_config("variance-step0", particles=300, replicates=400,
                                          replicates2=300, seed=4, timing=False))
    clt = run_experiment(default_config("clt", particles=300, replicates=400,
                                        replicates2=300, seed=4, timing=False))
    s2 = limit.sigma2_sq
    for row in (step0.row("window_kernel_mean"), clt.row("sigma2_sq")):
        assert (row.estimate, row.ci_lo, row.ci_hi, row.n_samples) == (s2.point, s2.lo, s2.hi, s2.n)
    assert step0.row("sigma1_sq").estimate == limit.sigma1_sq
    assert clt.row("sigma_total").estimate == limit.total


def test_model_name_does_not_select_the_builtin_closed_forms():
    """A custom model named "section7" is still a custom model."""
    for experiment in ("variance-step0", "clt"):
        rows = [
            run_experiment(default_config(experiment, model={**SLOPED_MODEL, "name": name},
                                          particles=300, replicates=400, replicates2=300,
                                          seed=2, timing=False)).rows
            for name in ("section7", "sloped")
        ]
        assert rows[0] == rows[1], experiment


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
    for points in (-1, 0, 1):
        with pytest.raises(InvalidConfig):
            beta_table_text("phi0", points)
    # omitted points: the per-kind default grid
    for kind, rows in (("beta0", 41**2), ("beta1", 9**4), ("phi0", 101), ("phik", 17**3)):
        assert len(beta_table_text(kind).splitlines()) == 1 + rows, kind


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
    wrong_types = [
        ("clt", {"workers": "2"}),
        ("clt", {"particles": "300"}),
        ("clt", {"seed": 1.5}),
        ("compare-resamplers", {"particles": 300.5}),
        ("conjecture2", {"step": True}),
        ("beta-table", {"table_kind": "bogus"}),
    ]
    typed = []
    for i, (experiment, fields) in enumerate(wrong_types):
        path = tmp_path / f"typed{i}.json"
        path.write_text(json.dumps({"schema": 1, "experiment": experiment, **fields}))
        typed.append((experiment, "--config", str(path)))
    flat = tmp_path / "flat.json"
    flat.write_text(json.dumps({"schema": 1, "experiment": "variance-step0", "model": FLAT_MODEL}))
    typo = tmp_path / "typo.json"
    typo.write_text(json.dumps({"schema": 1, "experiment": "clt",
                                "model": {"g": {"form": "exp", "rat": 3}}}))
    steep = tmp_path / "steep.json"
    steep.write_text(json.dumps({"schema": 1, "experiment": "clt",
                                 "model": {"g": {"form": "exp", "rate": 800}}}))
    bad_inputs = typed + [
        ("clt", "--config", str(typo), "--particles", "300", "--replicates", "200"),
        # exp(800) overflows the potential's bounds
        ("clt", "--config", str(steep)),
        # malformed flags: argparse's own exit code 2 would read as a FAIL verdict
        ("clt", "--format", "xml"),
        ("clt", "--particles", "abc"),
        ("bogus",),
        ("variance-step0", "--config", str(flat), "--particles", "300", "--replicates", "200"),
        ("clt", "--config", str(cfgfile)),
        ("variance-step0", "--seed", "-1", "--particles", "300", "--replicates", "200"),
        ("variance-step1", "--particles", "300", "--replicates", "200", "--replicates2", "1"),
        ("beta-table", "--points", "-1"),
        ("beta-table", "--points", "0"),
        ("beta-table", "--format", "json"),
        ("clt", "--points", "5"),
        # flags the experiment does not read
        ("clt", "--kind", "phi0"),
        ("variance-step0", "--step", "7", "--tuple-size", "9"),
        ("conjecture1", "--replicates2", "1"),
        ("compare-resamplers", "--workers", "3"),
        # --out naming a directory: the write fails after the grid or report is built
        ("beta-table", "--kind", "phi0", "--points", "3", "--out", str(tmp_path)),
        ("variance-step0", "--particles", "300", "--replicates", "200", "--replicates2", "100",
         "--out", str(tmp_path)),
    ]
    for args in bad_inputs:
        proc = _run_cli(*args)
        assert proc.returncode == 1, args
        assert "error:" in proc.stderr and "Traceback" not in proc.stderr, proc.stderr
