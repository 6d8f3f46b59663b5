import itertools
import json
import os
import platform
import subprocess
import sys
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from smclab import (
    InvalidConfig,
    InvalidModel,
    SmclabError,
    beta0,
    beta0_u_integral,
    beta1,
    beta_pair_u_integral,
    cli,
    experiments,
    sigma1_sq,
    weight_profile,
)
from smclab._engine import BATCH_TARGET, run_stream, stream_rng
from smclab.estimators import EstimateWithCI
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
from smclab.resampling import SCHEMES

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
    # sums that overflow at the config's particle count: 300 g f past 1e308,
    # and conjecture2's window sums of positions near 1e300
    heavy = {"g": {"form": "exp", "scale": 1e300}, "f": {"form": "exp", "scale": 1e6}}
    with pytest.raises(InvalidConfig, match="bound of \\|f\\|"):
        validate_config(default_config("clt", model=heavy, particles=300))
    validate_config(default_config("compare-resamplers", model=heavy, particles=300))
    far = {"initial": {"law": "uniform", "lo": 0.0, "hi": 1e300},
           "g": {"form": "poly", "coeffs": [1.0, 1e-300]}}
    with pytest.raises(InvalidConfig, match="positions"):
        validate_config(default_config("conjecture2", model=far, particles=300))


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
    assert payload["stream_generator"] == "SFC64"
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

@pytest.mark.parametrize("kind", SCHEMES)
def test_mc_resample_sums_do_not_depend_on_the_block(kind):
    """Blocks of rows draw the one stream of single calls: every block size
    gives the same sums, bit for bit."""
    rng = np.random.default_rng(11)
    prof = weight_profile(np.exp(3.0 * rng.random(40)))
    fv = rng.normal(size=40)
    sums = [experiments._mc_resample_sums(kind, prof, fv, 1000, np.random.default_rng(12), block)
            for block in (1, 7, 1024, 4096)]
    for other in sums[1:]:
        assert np.array_equal(other, sums[0])


_FAULTS_PER_BATCH = """
import resource, sys
import numpy as np
from smclab import build_model, experiments, run_filter, weight_profile
from smclab._engine import SelectedSumTask, batch_rows, keep_freed_memory, run_stream, stream_rng

assert keep_freed_memory.cache_info().currsize == 0, "importing smclab set the policy"

if sys.argv[1] == "engine":
    task = SelectedSumTask("section7", 2000, step=1)
    rows = batch_rows(2000)
    run = lambda batches: run_stream(task, batches * rows, 1, 0)
elif sys.argv[1] == "filter":
    model = build_model("section7")
    run = lambda steps: run_filter(model, 2000, steps, 1)
else:
    rng = stream_rng(5, 1, 0)
    prof = weight_profile(np.exp(3.0 * rng.random(1000)))
    fv = rng.normal(size=1000)
    run = lambda blocks: experiments._mc_resample_sums("stratified", prof, fv, blocks * 128, rng)
run(1)
run(1)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
run(int(sys.argv[2]))
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / int(sys.argv[2]))
assert keep_freed_memory.cache_info().currsize == 1, "ran without the policy"
"""


@pytest.mark.skipif(sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
                    reason="the memory policy is glibc's mallopt")
def test_engine_batches_reuse_their_pages():
    """After two warm-up batches, engine batches (section7, M = 2000) and
    ``_mc_resample_sums`` blocks (M = 1000) reuse the pages freed before
    them: under 100 minor page faults each, where a heap trimmed after
    every batch faults about 700 and 6,000.  (The second batch can still
    grow the heap by about 990 pages on first touch.)  Each loop runs in a
    fresh interpreter, so no earlier test's frees have moved glibc's dynamic
    thresholds; importing smclab there leaves the policy unset, and every
    loop, ``run_filter`` (M = 2000, steps as batches) too, sets it through
    ``stream_rng``."""
    for loop, batches in (("engine", 6), ("resample", 4), ("filter", 4)):
        proc = subprocess.run([sys.executable, "-c", _FAULTS_PER_BATCH, loop, str(batches)],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert float(proc.stdout) < 100, loop


def test_stream_rng_switches_the_memory_policy_on():
    """The first generator of a process sets the memory policy, before any
    batch runs; importing smclab does not."""
    script = ("from smclab._engine import keep_freed_memory, stream_rng\n"
              "assert keep_freed_memory.cache_info().currsize == 0, 'importing smclab set the policy'\n"
              "stream_rng(1, 0, 0)\n"
              "assert keep_freed_memory.cache_info().currsize == 1, 'stream_rng left the policy unset'\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("seed, stream, batch", [(0, 0, 0), (1, 2, 0), (5, 92, 3), (2**40, 1, 17)])
def test_stream_rng_is_sfc64_on_its_spawn_key(seed, stream, batch):
    """A stream is SFC64 seeded with SeedSequence(seed, spawn_key=(stream,
    batch)), and nothing else: a report's digits depend on that generator."""
    rng = stream_rng(seed, stream, batch)
    assert isinstance(rng.bit_generator, np.random.SFC64)
    want = np.random.Generator(np.random.SFC64(
        np.random.SeedSequence(entropy=seed, spawn_key=(stream, batch))))
    assert np.array_equal(rng.random(1000), want.random(1000))


def test_stream_rng_streams_differ():
    draws = {(stream, batch): stream_rng(3, stream, batch).random(8).tobytes()
             for stream in range(4) for batch in range(4)}
    assert len(set(draws.values())) == len(draws)


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
    """variance-step0 and clt report sigma2_sq's own estimate, bit for bit,
    and sigma1_sq's value."""
    s2 = sigma2_sq("section7", 300, seed=4)
    s1 = sigma1_sq("section7")
    step0 = run_experiment(default_config("variance-step0", particles=300, replicates=400,
                                          replicates2=300, seed=4, timing=False))
    clt = run_experiment(default_config("clt", particles=300, replicates=400,
                                        replicates2=300, seed=4, timing=False))
    for row in (step0.row("window_kernel_mean"), clt.row("sigma2_sq")):
        assert (row.estimate, row.ci_lo, row.ci_hi, row.n_samples) == (s2.point, s2.lo, s2.hi, s2.n)
    assert step0.row("sigma1_sq").estimate == s1
    assert clt.row("sigma_total").estimate == s1 + s2.point


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


def test_beta_table_is_one_array_evaluation():
    """Each default grid is its kernel called once on the arrays of all
    nodes, bit for bit, with the nodes in product order (first axis
    outermost)."""
    tables = {
        "beta0": (beta0, (1.0, 3.0), 41),
        "beta1": (beta1, (1.0, 2.0, 2.0, 2.0), 9),
        "phi0": (beta0_u_integral, (3.0,), 101),
        "phik": (beta_pair_u_integral, (2.0, 2.0, 2.0), 17),
    }
    for kind, (kernel, ends, points) in tables.items():
        nodes = np.array(list(itertools.product(*(np.linspace(0.0, end, points) for end in ends)))).T
        expected = [",".join([*(repr(float(v)) for v in node), repr(float(value))])
                    for *node, value in zip(*nodes, kernel(*nodes))]
        assert beta_table_text(kind).splitlines()[1:] == expected, kind


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def _run_cli(*args):
    return subprocess.run([sys.executable, "-m", "smclab.cli", *args],
                          capture_output=True, text=True)


@dataclass(frozen=True)
class _ExitingTask:
    """A task whose worker process exits without returning a result."""

    particles: int = BATCH_TARGET  # one row per batch

    def __call__(self, rows, rng):
        os._exit(3)


def test_dead_worker_is_an_error(monkeypatch, capsys):
    """A pool worker that dies ends the stream with an SmclabError, and the
    command line with exit 1 and an error line, not a traceback."""
    with pytest.raises(SmclabError, match="worker process"):
        run_stream(_ExitingTask(), 2, seed=0, stream=0, workers=2)
    monkeypatch.setitem(experiments._RUNNERS, "conjecture2",
                        lambda cfg: run_stream(_ExitingTask(), 2, cfg.seed, 0, workers=2))
    assert cli.main(["conjecture2", "--particles", "400", "--replicates", "100"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: a worker process") and "Traceback" not in err


def test_nonpositive_sigma_total_is_a_monte_carlo_error(monkeypatch, capsys):
    """A sigma2_sq estimate that leaves clt's predicted variance <= 0 ends
    the command line with exit 1 and an error line that names the estimate
    and replicates2, not as an input error and not with a traceback."""
    monkeypatch.setattr(experiments, "sigma2_sq",
                        lambda *args, **kwargs: EstimateWithCI(point=-1.0, lo=-2.5, hi=0.5, n=2))
    with pytest.raises(SmclabError) as info:
        run_experiment(default_config("clt", particles=300, replicates=200, replicates2=2))
    assert not isinstance(info.value, ValueError)  # every input error is a ValueError
    assert cli.main(["clt", "--particles", "300", "--replicates", "200",
                     "--replicates2", "2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: the sigma2_sq estimate -1 [-2.5, 0.5]"), err
    assert "raise replicates2 (now 2)" in err and "Traceback" not in err


def test_out_of_memory_is_an_error(monkeypatch, capsys):
    """A task that runs out of memory ends the command line with exit 1 and
    an error line, not a traceback."""
    def exhausted(cfg):
        raise MemoryError("Unable to allocate 8.00 GiB for an array")

    monkeypatch.setattr(cli, "run_experiment", exhausted)
    assert cli.main(["clt", "--particles", "300", "--replicates", "200"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: Unable to allocate") and "Traceback" not in err


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
        ("beta-table", {"model": {"g": {"form": "exp", "rat": 3}}}),
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


# ---------------------------------------------------------------------------
# every model table that validates gives finite reports
# ---------------------------------------------------------------------------

# (a) step-1 potential bounds about 1e292 and 1e-316: the ratio overflows
RATIO_OVERFLOW = {"kernel": {"kind": "uniform_shift", "lo": -1, "hi": 1e-8},
                  "g": {"form": "exp", "scale": 1e-12, "rate": -700}}
# (b) f near 1e300: its square overflows
F_SQUARE_OVERFLOW = {"f": {"form": "exp", "scale": 1e300, "rate": -0.25}}
# (c) f near 1e200: the variance of its sums overflows
F_MOMENT_OVERFLOW = {"f": {"form": "exp", "scale": 1e200, "rate": 1}}
# (d) g near 1e305: 2000 of them overflow the engine's sum of the weights
G_SUM_OVERFLOW = {"g": {"form": "exp", "scale": 1e305}}
REPORTS = ("conjecture1", "conjecture2", "variance-step0", "variance-step1", "clt",
           "compare-resamplers")


def _magnitude():
    return st.floats(-300.0, 305.0).map(lambda e: 10.0**e)


def _form():
    def exp(scale, rate):
        return st.fixed_dictionaries({"form": st.just("exp"), "scale": scale, "rate": rate})

    coeff = st.one_of(st.floats(-3.0, 3.0), _magnitude(), _magnitude().map(lambda c: -c))
    return st.one_of(exp(st.floats(1e-3, 1e3), st.floats(-5.0, 5.0)),
                     exp(_magnitude(), st.one_of(st.floats(-800.0, 800.0), st.sampled_from([0.0, 1.0]))),
                     st.fixed_dictionaries({"form": st.just("poly"),
                                            "coeffs": st.lists(coeff, min_size=1, max_size=3)}))


def _interval(key, value):
    lo = st.one_of(st.just(0.0), st.floats(-5.0, 5.0), _magnitude(), _magnitude().map(lambda x: -x))
    width = st.one_of(st.just(1.0), st.floats(-12.0, 3.0).map(lambda e: 10.0**e), _magnitude())
    return st.builds(lambda a, w: {key: value, "lo": a, "hi": a + w}, lo, width)


@st.composite
def _model_tables(draw):
    table = {"g": draw(_form()), "f": draw(_form())}
    if draw(st.booleans()):
        table["initial"] = draw(_interval("law", "uniform"))
    if draw(st.booleans()):
        table["kernel"] = draw(_interval("kind", "uniform_shift"))
    return table


@settings(max_examples=100, deadline=None)
@given(table=_model_tables(), particles=st.sampled_from([10, 300, 2000]))
@example(table=RATIO_OVERFLOW, particles=300)
@example(table=F_SQUARE_OVERFLOW, particles=300)
@example(table=F_MOMENT_OVERFLOW, particles=300)
@example(table=G_SUM_OVERFLOW, particles=2000)
def test_model_tables_give_finite_reports_or_errors(table, particles):
    """Every report experiment at tiny scale raises an SmclabError or
    returns finite rows: an input error never reads as a verdict."""
    for experiment in REPORTS:
        overrides = dict(particles=particles, replicates=100, model=table, timing=False)
        if "replicates2" in experiments._DESK_DEFAULTS[experiment]:
            overrides["replicates2"] = 2
        if experiment == "conjecture2":
            overrides.update(step=2, tuple_size=2)
        try:
            report = run_experiment(default_config(experiment, **overrides))
        except SmclabError:
            continue
        for row in report.rows:
            assert np.isfinite([row.estimate, row.ci_lo, row.ci_hi]).all(), (experiment, row)


@pytest.mark.parametrize("experiment, table, particles", [
    ("clt", RATIO_OVERFLOW, 300),
    ("compare-resamplers", F_SQUARE_OVERFLOW, 300),
    ("clt", F_MOMENT_OVERFLOW, 300),
    ("variance-step0", G_SUM_OVERFLOW, 2000),
    ("clt", G_SUM_OVERFLOW, 2000),
    ("conjecture2", G_SUM_OVERFLOW, 2000),
], ids=["a-ratio", "b-f-square", "c-f-moments", "d-variance-step0", "d-clt", "d-conjecture2"])
def test_overflowing_tables_are_cli_errors(tmp_path, capsys, experiment, table, particles):
    """The command line rejects each table before any stream runs: exit 1
    and an error line, no traceback."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"schema": 1, "experiment": experiment, "model": table}))
    args = [experiment, "--config", str(config), "--particles", str(particles),
            "--replicates", "200"]
    assert cli.main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
