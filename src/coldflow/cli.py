"""Command-line driver for the fridge-fleet pipeline.

Subcommands mirror the pipeline tasks: simulate (fleet to CSV), ingest
(CSV to store), wrangle, learn, infer, select, report, plus run (the full
staged pipeline) and validate-config. Everything is driven by one JSON
config; flags only say where that config and the store live.

Exit codes: 0 success, 1 task failure, 2 config or usage error.

Each command imports only the modules it runs, inside the command, so a
serve request does not pay for code it never calls: ``select`` loads the
document store and never numpy; ``report`` adds numpy but not the
network, the simulator or the wrangler; ``infer`` and the training
commands load ``coldflow.pipelines`` in full.

``ingest`` treats each CSV file as one unit of work and runs the units on
``pool_width`` processes, this one included, through
:func:`coldflow.processes.in_order_on_processes`, which ``wrangle`` also
uses to read the stored telemetry; the results are stored in file order,
so the store is the same at any width.

Resolution order for paths: an explicit flag wins, then the environment
(STORE_PATH / CONFIG_PATH, set by the orchestrator when this CLI runs as
an external stage script), then the config's own store_path.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import math
import os
import pathlib
import sys
import traceback

from coldflow.docstore import open_store
from coldflow.processes import in_order_on_processes
from coldflow.runconfig import DEFAULT_POOL_WIDTH, ConfigError, load_config
from coldflow.telemetry import MissingColumn, Setpoints, UnsortedInput, parse_telemetry_csv, runs

# Nominal retail chill setpoints, used only when ingesting CSVs that
# arrive without a setpoints sidecar; they land in provenance fields.
DEFAULT_TARGET_ON = 4.0
DEFAULT_TARGET_OFF = 1.0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coldflow",
        description="Staged document-store pipeline for fridge-fleet "
                    "demand-response and fault prediction.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="path to the JSON run configuration")
    common.add_argument("--store", help="document store directory "
                                        "(overrides config store_path)")
    common.add_argument("--seed", type=int, help="override the config seed")
    common.add_argument("--verbose", action="store_true",
                        help="debug logging and full tracebacks")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", parents=[common],
                       help="simulate the configured fleet to CSV files")
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("ingest", parents=[common],
                       help="ingest telemetry CSVs (and work orders) into the store")
    p.add_argument("--from", dest="data_dir", required=True,
                   help="directory holding telemetry CSVs, plus optional "
                        "setpoints.json and workorders.json")
    p.add_argument("--target-on", type=float, default=None,
                   help="fallback air-on setpoint when no sidecar exists")
    p.add_argument("--target-off", type=float, default=None,
                   help="fallback air-off setpoint when no sidecar exists")

    for name, help_text in (
        ("wrangle", "cut supervised examples from stored telemetry"),
        ("learn", "train every configured model on the train split"),
        ("infer", "run configured models and store predictions"),
        ("select", "pick fridges for a demand-response event"),
        ("report", "summarize model quality into a report document"),
        ("run", "full pipeline: simulate, wrangle, learn, infer, serve"),
    ):
        sub.add_parser(name, parents=[common], help=help_text)

    sub.add_parser("validate-config", parents=[common],
                   help="check a config file and exit")
    return parser


def _config_path(args) -> str | None:
    return args.config or os.environ.get("CONFIG_PATH")


def _load_required_config(args) -> tuple[dict, str]:
    path = _config_path(args)
    if path is None:
        raise ConfigError(f"config: {args.command} needs --config "
                          "(or CONFIG_PATH in the environment)")
    config = load_config(path)
    if args.seed is not None:
        config["seed"] = args.seed
    return config, path


def _store_path(args, config: dict | None) -> str:
    path = args.store or os.environ.get("STORE_PATH") \
        or (config or {}).get("store_path")
    if not path:
        raise ConfigError("config: no store given (use --store, STORE_PATH, "
                          "or store_path in the config)")
    return path


def _setup_logging(args, config: dict | None):
    level = logging.DEBUG if args.verbose else getattr(
        logging, ((config or {}).get("log_level") or "warning").upper())
    logging.basicConfig(level=level,
                        format="%(levelname)s %(name)s: %(message)s")


def _require_section(config: dict, name: str):
    if not config.get(name):
        raise ConfigError(f"{name}: config has no {name} section")


def cmd_simulate(args) -> int:
    from coldflow import pipelines
    from coldflow.fridgesim import simulate_fleet, write_telemetry_csv

    config, _ = _load_required_config(args)
    _setup_logging(args, config)
    _require_section(config, "simulate")
    sim_config = pipelines.sim_config_from(config)
    plans, orders = pipelines.plan_fleet_faults(sim_config, config)
    out = pathlib.Path(args.out)
    (out / "telemetry").mkdir(parents=True, exist_ok=True)
    setpoints = {}
    rows = 0
    for spec, readings in simulate_fleet(sim_config, plans):
        write_telemetry_csv(readings, out / "telemetry" / f"{spec.fridge_id}.csv")
        sp = pipelines.midband_setpoints(spec)
        setpoints[spec.fridge_id] = [sp.on, sp.off]
        rows += len(readings)
    (out / "setpoints.json").write_text(
        json.dumps(setpoints, indent=2, sort_keys=True) + "\n")
    (out / "workorders.json").write_text(
        json.dumps([[text, ts] for text, ts in orders], indent=2) + "\n")
    print(f"simulated {sim_config.n_fridges} fridges, {rows} rows, "
          f"{len(plans)} faults -> {out}")
    return 0


def _ingest_file(path: pathlib.Path, sidecar: dict, fallback: Setpoints):
    """Parse one telemetry CSV and make each fridge's rows ready to store.

    Returns the file's batches, one ``(encoded telemetry, ratings)`` pair
    per run of rows of one fridge, in file order, and its reject count.
    Touches no store, so a worker process can run it. A bad header or
    unsorted rows raise their own exception type, with the path in front.
    """
    from coldflow import pipelines

    try:
        readings, rejects = parse_telemetry_csv(path.read_text())
        batches = []
        for lo, hi in runs(readings.fridge_ids):
            pair = sidecar.get(readings.fridge_ids[lo])
            sp = Setpoints(on=pair[0], off=pair[1]) if pair else fallback
            batches.append(pipelines.fridge_batch(readings[lo:hi], sp))
    except (MissingColumn, UnsortedInput) as exc:
        raise type(exc)(f"{path}: {exc}") from exc
    return batches, len(rejects)


def _is_number(value) -> bool:
    """An int or a finite float, as JSON gives them; a bool is not one."""
    return type(value) is int or type(value) is float and math.isfinite(value)


def _sidecar(path: pathlib.Path, kind: type, valid, expected: str):
    """The JSON in ``path`` (None when there is no such file), a ``kind``
    whose entries all pass ``valid``. Raises ValueError naming the file and
    its first bad entry."""
    if not path.is_file():
        return None
    try:
        value = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if not isinstance(value, kind):
        raise ValueError(f"{path}: expected a JSON {kind.__name__} of {expected}")
    for key, entry in value.items() if kind is dict else enumerate(value):
        if not (isinstance(entry, list) and len(entry) == 2 and valid(*entry)):
            raise ValueError(f"{path}: entry {key!r} is {json.dumps(entry)}, "
                             f"not {expected}")
    return value


def cmd_ingest(args) -> int:
    from coldflow import pipelines

    config = None
    if _config_path(args) is not None:
        config, _ = _load_required_config(args)
    _setup_logging(args, config)
    store_path = _store_path(args, config)
    data = pathlib.Path(args.data_dir)
    csv_dir = data / "telemetry" if (data / "telemetry").is_dir() else data
    csv_paths = sorted(csv_dir.glob("*.csv"))
    if not csv_paths:
        print(f"error: no CSV files under {csv_dir}", file=sys.stderr)
        return 1
    sidecar = _sidecar(data / "setpoints.json", dict,
                       lambda on, off: _is_number(on) and _is_number(off),
                       "[on, off] setpoints, two finite numbers") or {}
    orders = _sidecar(data / "workorders.json", list,
                      lambda text, ts: isinstance(text, str) and _is_number(ts),
                      "[text, timestamp], a string and a finite number")
    fallback = Setpoints(
        on=args.target_on if args.target_on is not None else DEFAULT_TARGET_ON,
        off=args.target_off if args.target_off is not None else DEFAULT_TARGET_OFF,
    )
    width = config["pool_width"] if config is not None else DEFAULT_POOL_WIDTH
    unit = functools.partial(_ingest_file, sidecar=sidecar, fallback=fallback)
    inserted = rejected = orders_in = 0
    with in_order_on_processes(unit, csv_paths, width) as results, \
            open_store(store_path) as store:
        for batches, rejects in results:
            rejected += rejects
            for telemetry, ratings in batches:
                count, _ = pipelines.store_fridge_batch(store, telemetry, ratings)
                inserted += count
        if orders is not None:
            orders_in, _ = pipelines.ingest_workorders(
                store, [(text, ts) for text, ts in orders])
    print(f"ingested {inserted} telemetry records and {orders_in} work orders "
          f"({rejected} rejected rows) into {store_path}")
    return 0


def cmd_wrangle(args) -> int:
    from coldflow import pipelines

    config, _ = _load_required_config(args)
    _setup_logging(args, config)
    with open_store(_store_path(args, config)) as store:
        summary = pipelines.wrangle(store, config)
    print(f"dsr examples: {summary['dsr']}")
    if summary["faults"] is not None:
        print(f"fault examples: {summary['faults']}")
    return 0


def cmd_learn(args) -> int:
    from coldflow import pipelines

    config, _ = _load_required_config(args)
    _setup_logging(args, config)
    _require_section(config, "learn")
    with open_store(_store_path(args, config)) as store:
        for entry in config["learn"]:
            doc = pipelines.learn_model(store, entry, config["seed"])
            print(f"trained {doc['name']}: model {doc['model_id']}, "
                  f"final val loss {doc['final_val_loss']:.4f}")
    return 0


def cmd_infer(args) -> int:
    from coldflow import pipelines

    config, _ = _load_required_config(args)
    _setup_logging(args, config)
    _require_section(config, "infer")
    with open_store(_store_path(args, config)) as store:
        for entry in config["infer"]:
            summary = pipelines.infer_model(store, entry)
            print(f"predictions: {summary}")
    return 0


def cmd_select(args) -> int:
    from coldflow.selection import select_dsr

    config, _ = _load_required_config(args)
    _setup_logging(args, config)
    _require_section(config, "select")
    with open_store(_store_path(args, config)) as store:
        doc = select_dsr(store, config)
    chosen = ", ".join(c["fridge_id"] for c in doc["chosen"]) or "(none)"
    print(f"selected {len(doc['chosen'])} of {doc['candidates_considered']} "
          f"candidates for {doc['target_kw']} kW "
          f"(total {doc['total_kw']:.2f} kW, feasible={doc['feasible']})")
    print(f"fridges: {chosen}")
    return 0


def cmd_report(args) -> int:
    from coldflow.reporting import make_report

    config, _ = _load_required_config(args)
    _setup_logging(args, config)
    _require_section(config, "report")
    with open_store(_store_path(args, config)) as store:
        doc = make_report(store, config)
    print(doc["table"])
    return 0


def cmd_run(args) -> int:
    from coldflow import pipelines

    config, config_path = _load_required_config(args)
    _setup_logging(args, config)
    store_path = _store_path(args, config)
    reports, ok = pipelines.run_project(store_path, config,
                                        config_path=config_path)
    for report in reports:
        status = "ok" if report.ok else "FAILED"
        print(f"stage {report.stage}: {status} ({len(report.events)} scripts)")
        for event in report.failures():
            print(f"  {event.script}: {event.error}", file=sys.stderr)
    if not ok:
        return 1
    if config["report"] is not None:
        with open_store(store_path, read_only=True) as store:
            doc = store.get(pipelines.REPORTS, f"report:{config['report']['tag']}")
        print(doc["table"])
    return 0


def cmd_validate_config(args) -> int:
    from coldflow import pipelines

    path = _config_path(args)
    if path is None:
        raise ConfigError("config: validate-config needs --config")
    config = load_config(path)
    stages = [s.name for s in pipelines.build_stages(config)]
    print(f"config ok: {path}")
    print(f"stages: {' -> '.join(stages) if stages else '(none)'}")
    return 0


COMMANDS = {
    "simulate": cmd_simulate,
    "ingest": cmd_ingest,
    "wrangle": cmd_wrangle,
    "learn": cmd_learn,
    "infer": cmd_infer,
    "select": cmd_select,
    "report": cmd_report,
    "run": cmd_run,
    "validate-config": cmd_validate_config,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        if args.verbose:
            traceback.print_exc()
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
