"""Command-line surface: CSV ingestion, fit and simulate subcommands,
report serialization.

Reports are CSV files with a leading block of `# key: value` metadata
lines. Every numeric cell is written with a fixed number of significant
digits (6 by default) so a report re-parses to the same values; absent
cells are written as NA.
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import dataclass, field
from importlib.metadata import PackageNotFoundError, version

import numpy as np

from .exceptions import DataError, SchemaError, SolverError, WqregError
from .model import LongitudinalDataset, check_tau
from .simulation import SimConfig, run_study
from .solver import confidence_intervals, fit

try:
    _VERSION = version("wqreg")
except PackageNotFoundError:
    _VERSION = "0.0.0"

# exit code per error class; any other WqregError (a SchemaError) exits 2
_EXIT_CODES = {DataError: 3, SolverError: 4}

_SIM_DEFAULTS = {
    "case": "normal",
    "rho": "0.1,0.5,0.9",
    "m": "500",
    "n": "4",
    "reps": "1000",
    "taus": "0.25,0.5,0.95",
    "methods": "wi,pqr,aqr",
    "seed": "20240901",
}


@dataclass
class FitCommandSpec:
    """Everything the fit subcommand needs, already validated for types."""

    data: str
    response: str
    subject_id: str
    covariates: list
    interactions: list = field(default_factory=list)  # list of (a, b) column pairs
    intercept: bool = True
    taus: list = field(default_factory=lambda: [0.5])
    method: str = "PQR"
    gamma_mode: str = "hk"
    out: str = ""
    precision: int = 6

    def design_names(self) -> list:
        names = ["intercept"] if self.intercept else []
        names += list(self.covariates)
        names += [f"{a}:{b}" for a, b in self.interactions]
        return names


@dataclass
class ReportDocument:
    """Metadata block plus one rectangular table."""

    metadata: dict
    columns: list
    rows: list
    precision: int = 6

    def _fmt(self, value) -> str:
        if value is None:
            return "NA"
        if isinstance(value, (float, np.floating, int, np.integer)):
            return f"{value:.{self.precision}g}"
        return str(value)

    def write(self, stream) -> None:
        for key, val in self.metadata.items():
            stream.write(f"# {key}: {val}\n")
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(self.columns)
        for row in self.rows:
            writer.writerow([self._fmt(v) for v in row])

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            self.write(fh)


def parse_report(path: str):
    """Read back a report: (metadata, columns, rows with numeric cells parsed)."""
    metadata, columns, rows = {}, None, []
    with open(path, encoding="utf-8", newline="") as fh:
        for line in fh:
            if line.startswith("#"):
                key, _, val = line[1:].strip().partition(":")
                metadata[key.strip()] = val.strip()
                continue
            for record in csv.reader([line]):
                if columns is None:
                    columns = record
                    continue
                parsed = []
                for cell in record:
                    if cell == "NA":
                        parsed.append(None)
                    else:
                        try:
                            parsed.append(float(cell))
                        except ValueError:
                            parsed.append(cell)
                rows.append(parsed)
    return metadata, columns or [], rows


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------


def load_csv(path: str, spec: FitCommandSpec):
    """Long-format CSV to (dataset, rows dropped): rows grouped by id in
    first-appearance order, in file order within a subject; rows with missing
    or non-numeric required fields dropped with a warning, blank lines
    skipped."""
    if not spec.covariates and not spec.intercept:
        raise SchemaError("need at least one covariate or an intercept")
    factors = [c for pair in spec.interactions for c in pair]
    needed = list(dict.fromkeys([spec.response, *spec.covariates, *factors]))  # each column once
    try:
        fh = open(path, encoding="utf-8", newline="")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        # a repeated header name takes its last column, as in csv.DictReader
        column = {name: k for k, name in enumerate(next(reader, []))}
        for col in [spec.subject_id] + needed:
            if col not in column:
                raise SchemaError(f"column {col!r} not found in {path}")
        id_col, value_cols = column[spec.subject_id], [column[c] for c in needed]
        codes: dict = {}  # subject id -> index in first-appearance order
        subject, values = [], []
        dropped = 0
        for record in reader:
            if not record:
                continue  # a blank line is no row
            try:
                sid = record[id_col].strip()
                row = [float(record[k]) for k in value_cols]
            except (IndexError, ValueError):  # a short row or a non-numeric field
                sid = ""
            if not sid:
                dropped += 1
                continue
            values.append(row)
            subject.append(codes.setdefault(sid, len(codes)))
    if not codes:
        raise DataError(f"no usable rows in {path}")
    # rows grouped by subject, each subject's rows in file order
    cols = dict(zip(needed, np.array(values)[np.argsort(subject, kind="stable")].T))
    design = [np.ones(len(values))] if spec.intercept else []
    design += [cols[c] for c in spec.covariates]
    design += [cols[a] * cols[b] for a, b in spec.interactions]
    dataset = LongitudinalDataset.from_rows(
        np.column_stack(design), cols[spec.response], np.bincount(subject), list(codes)
    )
    if dropped:
        print(f"warning: dropped {dropped} rows with missing or non-numeric fields", file=sys.stderr)
    return dataset, dropped


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def run_fit_command(spec: FitCommandSpec) -> ReportDocument:
    if not spec.taus:
        raise SchemaError("tau list must be non-empty")
    dataset, dropped = load_csv(spec.data, spec)
    names = spec.design_names()
    metadata = {
        "command": "fit",
        "version": _VERSION,
        "input": spec.data,
        "response": spec.response,
        "id": spec.subject_id,
        "design": ",".join(names),
        "method": spec.method.upper(),
        "gamma": spec.gamma_mode,
        "taus": ",".join(f"{t:g}" for t in spec.taus),
        "subjects": dataset.m,
        "observations": dataset.n_obs,
        "rows_dropped": dropped,
    }
    rows = []
    n_nonconverged = 0
    for tau in spec.taus:
        try:
            result = fit(dataset, tau, spec.method, gamma_mode=spec.gamma_mode)
        except SolverError as exc:
            raise SolverError(f"tau={tau:g} method={spec.method.upper()}: {exc}") from exc
        ci = confidence_intervals(result)
        for k, name in enumerate(names):
            rows.append(
                [tau, result.method, name, result.beta[k], result.std_errors[k], ci[k, 0], ci[k, 1]]
            )
        lags = ",".join(f"{r:.{spec.precision}g}" for r in result.rho_hat) or "none"
        metadata[f"fit tau={tau:g}"] = (
            f"iterations={result.iterations} converged={'yes' if result.converged else 'no'} "
            f"rho_hat={lags}"
        )
        n_nonconverged += 0 if result.converged else 1
    metadata["non_converged"] = n_nonconverged
    columns = ["tau", "method", "coefficient", "estimate", "std_error", "ci_lower", "ci_upper"]
    return ReportDocument(metadata, columns, rows, spec.precision)


def build_sim_configs(options: dict):
    """Merge defaults, config-file keys and flags into one SimConfig per rho."""
    merged = dict(_SIM_DEFAULTS)
    merged.update({k: v for k, v in options.items() if v is not None})
    try:
        rhos = _parse_float_list(merged["rho"], "rho")
        taus = _parse_float_list(merged["taus"], "taus")
        methods = [s for s in merged["methods"].split(",") if s.strip()]
        configs = [
            SimConfig(
                m=int(merged["m"]),
                n=int(merged["n"]),
                rho=rho,
                error_case=merged["case"],
                taus=taus,
                methods=methods,
                replications=int(merged["reps"]),
                master_seed=int(merged["seed"]),
            )
            for rho in rhos
        ]
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc
    return configs


def _summary_text(config: SimConfig, report) -> str:
    lines = [
        f"case={config.error_case} rho={config.rho:g} m={config.m} n={config.n} "
        f"replications={config.replications}"
    ]
    head = f"{'tau':>6} {'method':>6} {'coef':>6} {'bias':>12} {'sd':>12} {'mean_se':>12} {'eff':>12} {'coverage':>12} {'n_fail':>6}"
    lines.append(head)
    for row in report.rows:
        cells = [
            f"{row.tau:>6g}",
            f"{row.method:>6}",
            f"{row.coefficient:>6}",
        ]
        for value in (row.bias, row.sd, row.mean_se, row.eff, row.coverage):
            cells.append(f"{'NA' if value is None else format(value, '.4g'):>12}")
        cells.append(f"{row.n_fail:>6}")
        lines.append(" ".join(cells))
    return "\n".join(lines)


def run_simulate_command(options: dict, out: str, precision: int = 6) -> ReportDocument:
    configs = build_sim_configs(options)
    metadata = {
        "command": "simulate",
        "version": _VERSION,
        "case": configs[0].error_case,
        "rho": ",".join(f"{c.rho:g}" for c in configs),
        "m": configs[0].m,
        "n": configs[0].n,
        "replications": configs[0].replications,
        "taus": ",".join(f"{t:g}" for t in configs[0].taus),
        "methods": ",".join(configs[0].methods),
        "seed": configs[0].master_seed,
        "beta_true": ",".join(f"{b:g}" for b in configs[0].beta_true),
    }
    columns = [
        "case",
        "rho",
        "tau",
        "method",
        "coefficient",
        "bias",
        "sd",
        "mean_se",
        "eff",
        "coverage",
        "n_fail",
    ]
    rows = []
    for config in configs:
        report = run_study(config)
        print(_summary_text(config, report))
        for r in report.rows:
            rows.append(
                [
                    config.error_case,
                    config.rho,
                    r.tau,
                    r.method,
                    r.coefficient,
                    r.bias,
                    r.sd,
                    r.mean_se,
                    r.eff,
                    r.coverage,
                    r.n_fail,
                ]
            )
    doc = ReportDocument(metadata, columns, rows, precision)
    if out:
        doc.save(out)
    return doc


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _parse_float_list(text: str, name: str) -> list:
    parts = [s.strip() for s in str(text).split(",") if s.strip()]
    if not parts:
        raise ValueError(f"{name} list must be non-empty")
    try:
        return [float(s) for s in parts]
    except ValueError as exc:
        raise ValueError(f"bad {name} value in {text!r}") from exc


def _parse_interaction(text: str):
    a, sep, b = text.partition(":")
    if not sep or not a or not b:
        raise argparse.ArgumentTypeError(f"interaction must look like col1:col2, got {text!r}")
    return a, b


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wqreg",
        description="Weighted quantile regression for longitudinal data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fit_p = sub.add_parser("fit", help="fit quantile regressions to a CSV file")
    fit_p.add_argument("--data", required=True, help="input CSV path (long format)")
    fit_p.add_argument("--response", required=True, help="response column name")
    fit_p.add_argument("--id", required=True, dest="subject_id", help="subject id column name")
    fit_p.add_argument("--covariates", required=True, help="comma-separated covariate columns")
    fit_p.add_argument(
        "--interaction",
        action="append",
        default=[],
        type=_parse_interaction,
        help="product column col1:col2 (repeatable)",
    )
    fit_p.add_argument("--tau", default="0.5", help="comma-separated quantile levels")
    fit_p.add_argument("--method", default="pqr", choices=["wi", "pqr", "aqr"])
    fit_p.add_argument("--gamma", default="hk", choices=["hk", "identity"])
    fit_p.add_argument("--no-intercept", action="store_true")
    fit_p.add_argument("--out", required=True, help="output report path")
    fit_p.add_argument("--precision", type=int, default=6, help="significant digits in output")

    sim_p = sub.add_parser("simulate", help="run a seeded simulation study")
    sim_p.add_argument("--config", help="key=value config file")
    sim_p.add_argument("--case", choices=["normal", "chisq", "t"])
    sim_p.add_argument("--rho", help="comma-separated AR(1) parameters")
    sim_p.add_argument("--m", type=int, help="subjects per replication")
    sim_p.add_argument("--n", type=int, help="occasions per subject")
    sim_p.add_argument("--reps", type=int, help="replication count")
    sim_p.add_argument("--taus", help="comma-separated quantile levels")
    sim_p.add_argument("--methods", help="comma-separated subset of wi,pqr,aqr")
    sim_p.add_argument("--seed", type=int, help="master seed")
    sim_p.add_argument("--out", required=True, help="output report path")
    sim_p.add_argument("--precision", type=int, default=6, help="significant digits in output")
    return parser


def _read_config_file(path: str) -> dict:
    values = {}
    try:
        fh = open(path, encoding="utf-8")
    except OSError as exc:
        raise SchemaError(f"cannot read config {path}: {exc}") from exc
    with fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, val = line.partition("=")
            key, val = key.strip(), val.strip()
            if not sep or not key:
                raise SchemaError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
            if key not in _SIM_DEFAULTS:
                raise SchemaError(f"{path}:{lineno}: unknown key {key!r}")
            values[key] = val
    return values


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.precision < 1:
            raise SchemaError(f"precision must be at least 1, got {args.precision}")
        if args.command == "fit":
            try:
                taus = [check_tau(t) for t in _parse_float_list(args.tau, "tau")]
            except ValueError as exc:
                raise SchemaError(str(exc)) from exc
            spec = FitCommandSpec(
                data=args.data,
                response=args.response,
                subject_id=args.subject_id,
                covariates=[c.strip() for c in args.covariates.split(",") if c.strip()],
                interactions=args.interaction,
                intercept=not args.no_intercept,
                taus=taus,
                method=args.method,
                gamma_mode=args.gamma,
                out=args.out,
                precision=args.precision,
            )
            doc = run_fit_command(spec)
            doc.save(spec.out)
            doc.write(sys.stdout)
        else:
            options = {} if args.config is None else _read_config_file(args.config)
            for key in _SIM_DEFAULTS:
                flag = getattr(args, key, None)
                if flag is not None:
                    options[key] = str(flag)
            run_simulate_command(options, args.out, args.precision)
    except WqregError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next((code for cls, code in _EXIT_CODES.items() if isinstance(exc, cls)), 2)
    return 0


if __name__ == "__main__":
    sys.exit(main())
