"""CSV ingestion, report documents, and both subcommands end to end."""

import numpy as np
import pytest

import wqreg.cli as cli
from wqreg import SchemaError, SimConfig, SolverError
from wqreg.simulation import generate_dataset
from wqreg.cli import (
    FitCommandSpec,
    ReportDocument,
    build_sim_configs,
    load_csv,
    main,
    parse_report,
    run_fit_command,
)

from oracle import subject_rows


def write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")


def spec_for(path, **kw):
    base = dict(data=str(path), response="y", subject_id="id", covariates=["trt", "x"])
    base.update(kw)
    return FitCommandSpec(**base)


def simulated_csv(path, m=80, rho=0.0, seed=5):
    config = SimConfig(m=m, n=4, rho=rho, taus=(0.5,), replications=1, master_seed=seed)
    ds = generate_dataset(config, 0)
    rows = []
    for sub in subject_rows(ds):
        for X_row, y in zip(sub.covariates, sub.responses):
            rows.append([sub.id, repr(float(y)), repr(float(X_row[1])), repr(float(X_row[2]))])
    write_csv(path, ["id", "y", "trt", "x"], rows)


def test_load_csv_groups_by_id(tmp_path):
    path = tmp_path / "d.csv"
    write_csv(
        path,
        ["id", "y", "trt", "x"],
        [
            ["b", 1.0, 0, 0.1],
            ["a", 2.0, 1, -0.2],
            ["b", 3.0, 0, 0.5],
            ["a", 4.0, 1, 0.7],
        ],
    )
    ds, _ = load_csv(str(path), spec_for(path))
    assert ds.m == 2
    assert ds.n_obs == 4
    # subjects keep first-appearance order and rows stay in file order
    subjects = subject_rows(ds)
    assert [s.id for s in subjects] == ["b", "a"]
    assert np.allclose(subjects[0].responses, [1.0, 3.0])
    assert np.allclose(subjects[0].covariates[:, 0], 1.0)
    assert subjects[0].covariates.shape == (2, 3)


def test_load_csv_drops_incomplete_rows(tmp_path, capsys):
    path = tmp_path / "d.csv"
    write_csv(
        path,
        ["id", "y", "trt", "x"],
        [
            ["a", 1.0, 0, 0.1],
            ["", 9.0, 0, 0.1],
            ["a", "oops", 1, 0.2],
            ["b", 2.0, 1, 0.3],
            ["b", 2.5, 0, 0.4],
            ["a", 3.0, 1, 0.6],
            ["b", 1.5, 1, 0.8],
            ["a", 0.5, 0, -0.3],
        ],
    )
    out = tmp_path / "r.csv"
    code = main(
        [
            "fit", "--data", str(path), "--response", "y", "--id", "id",
            "--covariates", "trt,x", "--tau", "0.5", "--method", "wi",
            "--out", str(out),
        ]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert "dropped 2 rows" in captured.err
    metadata, _, _ = parse_report(out)
    assert metadata["rows_dropped"] == "2"
    assert metadata["observations"] == "6"


def test_load_csv_reads_rows_as_csv_dict_reader_does(tmp_path, capsys):
    path = tmp_path / "d.csv"
    lines = [
        "id,x,y,trt,x",  # a repeated name takes its last column
        "a,99,1.0,0,0.1",
        "",  # a blank line is neither loaded nor counted
        "b,99,2.0,1",  # a short row misses x: dropped and counted
        "a,99,3.0,1,0.6,extra",  # an extra field is ignored
        "b,99,2.5,0,0.4",
    ]
    path.write_text("\n".join(lines) + "\n")
    ds, dropped = load_csv(str(path), spec_for(path))
    assert dropped == 1 and "dropped 1 rows" in capsys.readouterr().err
    subjects = subject_rows(ds)
    assert [s.id for s in subjects] == ["a", "b"]
    assert np.array_equal(subjects[0].covariates, [[1.0, 0.0, 0.1], [1.0, 1.0, 0.6]])
    assert np.array_equal(subjects[0].responses, [1.0, 3.0])
    assert np.array_equal(subjects[1].covariates, [[1.0, 0.0, 0.4]])
    assert np.array_equal(subjects[1].responses, [2.5])

    path.write_text("\n".join(lines + ["c,99,nan,1,0.2", "c,99,1.5,0,0.3"]) + "\n")
    code = main(
        [
            "fit", "--data", str(path), "--response", "y", "--id", "id",
            "--covariates", "trt,x", "--out", str(tmp_path / "r.csv"),
        ]
    )
    assert code == 3
    assert "error: subject 'c' contains non-finite values" in capsys.readouterr().err


def test_missing_column_is_schema_error(tmp_path, capsys):
    path = tmp_path / "d.csv"
    write_csv(path, ["id", "y", "trt"], [["a", 1.0, 0]])
    with pytest.raises(SchemaError, match="at least one covariate or an intercept"):
        load_csv(str(path), spec_for(path, covariates=[], intercept=False))
    code = main(
        [
            "fit", "--data", str(path), "--response", "y", "--id", "id",
            "--covariates", "trt,x", "--out", str(tmp_path / "r.csv"),
        ]
    )
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_no_usable_rows_is_data_error(tmp_path, capsys):
    path = tmp_path / "d.csv"
    write_csv(path, ["id", "y", "trt", "x"], [])
    code = main(
        [
            "fit", "--data", str(path), "--response", "y", "--id", "id",
            "--covariates", "trt,x", "--out", str(tmp_path / "r.csv"),
        ]
    )
    assert code == 3
    assert "error:" in capsys.readouterr().err


def test_empty_tau_list_is_schema_error(tmp_path, capsys):
    path = tmp_path / "d.csv"
    write_csv(path, ["id", "y", "trt", "x"], [["a", 1.0, 0, 0.1]])
    args = [
        "fit", "--data", str(path), "--response", "y", "--id", "id",
        "--covariates", "trt,x", "--out", str(tmp_path / "r.csv"),
    ]
    assert main(args + ["--tau", " , "]) == 2
    assert main(args + ["--tau", "0.5,abc"]) == 2
    capsys.readouterr()


def test_tau_outside_unit_interval_is_schema_error_before_loading(tmp_path, capsys):
    # the data file does not exist: the tau check must fire before any read
    args = [
        "fit", "--data", str(tmp_path / "missing.csv"), "--response", "y", "--id", "id",
        "--covariates", "trt,x", "--out", str(tmp_path / "r.csv"),
    ]
    for bad in ("1.5", "0.5,0", "-0.25"):
        assert main(args + ["--tau", bad]) == 2
        assert "error: quantile level must lie in (0, 1)" in capsys.readouterr().err


def test_bad_precision_is_schema_error_before_any_fit(tmp_path, monkeypatch, capsys):
    path = tmp_path / "d.csv"
    simulated_csv(path, m=10)

    def no_work(*args, **kwargs):
        raise AssertionError("work ran before the precision check")

    monkeypatch.setattr(cli, "fit", no_work)
    monkeypatch.setattr(cli, "run_study", no_work)
    fit_args = [
        "fit", "--data", str(path), "--response", "y", "--id", "id",
        "--covariates", "trt,x", "--out", str(tmp_path / "r.csv"),
    ]
    sim_args = ["simulate", "--m", "20", "--reps", "2", "--out", str(tmp_path / "s.csv")]
    for args in (fit_args, sim_args):
        for bad in ("-1", "0"):
            assert main(args + ["--precision", bad]) == 2
            assert "error: precision must be at least 1" in capsys.readouterr().err


def test_interaction_column_order(tmp_path):
    path = tmp_path / "d.csv"
    write_csv(
        path,
        ["id", "y", "trt", "time"],
        [["a", 1.0, 2.0, 3.0], ["a", 2.0, 0.5, 4.0], ["b", 3.0, 1.0, 5.0]],
    )
    spec = spec_for(path, covariates=["trt", "time"], interactions=[("trt", "time")])
    assert spec.design_names() == ["intercept", "trt", "time", "trt:time"]
    ds, _ = load_csv(str(path), spec)
    first = subject_rows(ds)[0]
    assert first.covariates.shape == (2, 4)
    assert np.allclose(first.covariates[0], [1.0, 2.0, 3.0, 6.0])


def test_fit_recovers_near_noiseless_line(tmp_path):
    rng = np.random.default_rng(8)
    rows = []
    for sid in range(40):
        for _ in range(2):
            trt = float(rng.integers(0, 2))
            x = float(rng.standard_normal())
            y = 1.0 + 2.0 * trt - 0.5 * x + 1e-6 * rng.standard_normal()
            rows.append([f"s{sid}", repr(y), trt, repr(x)])
    path = tmp_path / "d.csv"
    write_csv(path, ["id", "y", "trt", "x"], rows)
    doc = run_fit_command(spec_for(path, taus=[0.25, 0.75], method="WI"))
    assert doc.columns == [
        "tau", "method", "coefficient", "estimate", "std_error", "ci_lower", "ci_upper",
    ]
    assert len(doc.rows) == 6
    for tau, _, name, estimate, *_ in doc.rows:
        target = {"intercept": 1.0, "trt": 2.0, "x": -0.5}[name]
        assert abs(estimate - target) <= 0.01
    # a sub-noise dataset drives the covariance fixed point toward zero, so
    # the flag may read no; the per-tau diagnostics must still be reported
    assert "non_converged" in doc.metadata
    assert "fit tau=0.25" in doc.metadata
    assert "fit tau=0.75" in doc.metadata


def test_fit_wi_and_pqr_agree_under_independence(tmp_path):
    path = tmp_path / "d.csv"
    simulated_csv(path, m=80, rho=0.0)
    betas = {}
    for method in ("wi", "pqr"):
        out = tmp_path / f"{method}.csv"
        code = main(
            [
                "fit", "--data", str(path), "--response", "y", "--id", "id",
                "--covariates", "trt,x", "--method", method, "--out", str(out),
            ]
        )
        assert code == 0
        _, _, rows = parse_report(out)
        betas[method] = np.array([r[3] for r in rows])
    assert np.max(np.abs(betas["wi"] - betas["pqr"])) <= 0.02


def test_report_document_round_trip(tmp_path):
    doc = ReportDocument(
        metadata={"command": "demo", "seed": 42},
        columns=["name", "value"],
        rows=[["a", 0.123456789], ["b", None], ["c", -1.5e-7]],
    )
    path = tmp_path / "r.csv"
    doc.save(str(path))
    metadata, columns, rows = parse_report(str(path))
    assert metadata == {"command": "demo", "seed": "42"}
    assert columns == ["name", "value"]
    assert rows[0][1] == pytest.approx(0.123456789, rel=1e-5)  # 6 significant digits
    assert rows[1][1] is None
    assert rows[2][1] == pytest.approx(-1.5e-7, rel=1e-5)
    text = path.read_text()
    assert "NA" in text
    assert "\r" not in text


def test_build_sim_configs_defaults():
    configs = build_sim_configs({})
    assert [c.rho for c in configs] == [0.1, 0.5, 0.9]
    for c in configs:
        assert c.error_case == "normal"
        assert (c.m, c.n, c.replications) == (500, 4, 1000)
        assert c.taus == (0.25, 0.5, 0.95)
        assert c.master_seed == 20240901
        assert c.methods == ("WI", "PQR", "AQR")
    with pytest.raises(SchemaError):
        build_sim_configs({"rho": "0.5,nope"})


def test_simulate_cli_is_byte_identical_between_runs(tmp_path, capsys):
    args = [
        "simulate", "--case", "normal", "--rho", "0.3", "--m", "25", "--n", "3",
        "--reps", "2", "--taus", "0.5", "--methods", "wi,pqr", "--seed", "4",
    ]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    stdout = capsys.readouterr().out
    assert "case=normal rho=0.3" in stdout

    metadata, columns, rows = parse_report(out1)
    assert metadata["seed"] == "4"
    assert metadata["replications"] == "2"
    assert columns[:5] == ["case", "rho", "tau", "method", "coefficient"]
    wi_eff = [r[columns.index("eff")] for r in rows if r[3] == "WI"]
    assert wi_eff and all(v == 1.0 for v in wi_eff)


def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "study.cfg"
    cfg.write_text(
        "# tiny smoke study\n"
        "case = chisq\n"
        "m = 30\n"
        "n = 3\n"
        "reps = 2\n"
        "taus = 0.5\n"
        "methods = wi\n"
        "rho = 0.2\n"
        "seed = 11\n"
    )
    out = tmp_path / "r.csv"
    code = main(
        ["simulate", "--config", str(cfg), "--m", "20", "--out", str(out)]
    )
    assert code == 0
    capsys.readouterr()
    metadata, _, _ = parse_report(out)
    assert metadata["case"] == "chisq"  # from the file
    assert metadata["m"] == "20"  # flag wins over the file
    assert metadata["seed"] == "11"

    bad = tmp_path / "bad.cfg"
    bad.write_text("cases = normal\n")
    assert main(["simulate", "--config", str(bad), "--out", str(out)]) == 2
    worse = tmp_path / "worse.cfg"
    worse.write_text("just words\n")
    assert main(["simulate", "--config", str(worse), "--out", str(out)]) == 2
    capsys.readouterr()


def test_solver_failure_maps_to_exit_4(tmp_path, monkeypatch, capsys):
    path = tmp_path / "d.csv"
    simulated_csv(path, m=10)

    def explode(*args, **kwargs):
        raise SolverError("jacobian is numerically singular")

    monkeypatch.setattr(cli, "fit", explode)
    code = main(
        [
            "fit", "--data", str(path), "--response", "y", "--id", "id",
            "--covariates", "trt,x", "--out", str(tmp_path / "r.csv"),
        ]
    )
    assert code == 4
    assert "singular" in capsys.readouterr().err
