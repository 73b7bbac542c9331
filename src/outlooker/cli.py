"""Command-line surface.

    outlooker inspect --config d1 --resolution 224
    outlooker oracle-check --seeds 20
    outlooker gradcheck --seeds 10
    outlooker bench --kinds oa,lsa,sa,conv --sizes 28x28 --channels 192
    outlooker train-toy --steps 500 --json
    outlooker gen-data --out toy.npz

Exit codes: 0 success, 1 verification failure (oracle/gradient mismatch,
accuracy below --min-accuracy, symbolic/allocated count drift), 2 usage error.
"""

from __future__ import annotations

import csv
import io
import json
import os
import statistics
import sys
import time
import tracemalloc
from dataclasses import asdict
from pathlib import Path

import click
import numpy as np

from . import __version__
from .attention import LAYER_KINDS, CostQuery, build_layer, layer_input, madds, measured_madds
from .checks import GRADCHECK_KINDS, ORACLE_KINDS, gradient_check, oracle_check
from .errors import ContractError, DivergenceError, GeometryError, ShapeError
from .model import (
    PRESETS,
    REFERENCE_MADDS,
    REFERENCE_PARAMS,
    ModelConfig,
    analytic_madds,
    build_model,
    count_params,
    count_params_config,
)
from .train import gen_synthetic, train_toy


def _resolve_config(value: str) -> ModelConfig:
    if value in PRESETS:
        return PRESETS[value]
    path = Path(value)
    if path.exists():
        try:
            return ModelConfig.from_json(path.read_text())
        except (ContractError, GeometryError, ShapeError, TypeError, OSError,
                UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise click.UsageError(f"bad config file {value}: {exc}") from exc
    raise click.UsageError(
        f"{value!r} is neither a preset ({', '.join(PRESETS)}) nor an existing JSON file"
    )


def _parse_csv(value: str, allowed: tuple[str, ...], what: str) -> tuple[str, ...]:
    items = tuple(s.strip() for s in value.split(",") if s.strip())
    bad = [s for s in items if s not in allowed]
    if bad or not items:
        raise click.UsageError(f"unknown {what} {bad or value!r}; choose from {', '.join(allowed)}")
    return items


def _finite(ctx, param, value: float) -> float:
    """Option callback: NaN and ±inf pass click's float ranges, so reject them here."""
    if not np.isfinite(value):
        raise click.BadParameter(f"must be a finite number, got {value}")
    return value


def _writable(ctx, param, value: str | None) -> str | None:
    """Option callback: an output path must lie in an existing, writable directory."""
    if value not in (None, "-"):
        folder = Path(value).parent
        if not (folder.is_dir() and os.access(folder, os.W_OK)):
            raise click.BadParameter(
                f"cannot write {value}: {folder} is not a writable directory")
    return value


def _echo_report(report, as_json: bool) -> None:
    click.echo(report.to_json() if as_json else report.format_table())
    if not report.passed:
        sys.exit(1)


@click.group()
@click.version_option(version=__version__, prog_name="outlooker")
def main() -> None:
    """Sliding-window attention models: inspect, verify, benchmark, train."""


@main.command()
@click.option("--config", "config_name", default="d1", show_default=True,
              help="Preset name or path to a config JSON file.")
@click.option("--resolution", type=int, default=None,
              help="Square input size for the cost model (default: the config's).")
@click.option("--allocate", is_flag=True,
              help="Also instantiate the model and cross-check the symbolic count.")
@click.option("--json", "as_json", is_flag=True, help="Emit machine-readable JSON.")
def inspect(config_name: str, resolution: int | None, allocate: bool, as_json: bool) -> None:
    """Show a config's layout, parameter count, and multiply-add cost."""
    config = _resolve_config(config_name)
    try:
        total_madds = analytic_madds(config, resolution)
    except ShapeError as exc:
        raise click.UsageError(str(exc)) from exc
    params = count_params_config(config)
    size = config.image_size if resolution is None else resolution
    info = {
        "config": asdict(config),
        "stage1_grid": config.stage1_grid,
        "stage2_grid": config.stage2_grid,
        "total_layers": config.total_layers,
        "params": params,
        "madds": total_madds,
        "madds_resolution": size,
    }
    if config_name in REFERENCE_PARAMS:
        info["params_target"] = REFERENCE_PARAMS[config_name]
        info["params_deviation"] = params / REFERENCE_PARAMS[config_name] - 1.0
    if config_name in REFERENCE_MADDS and size == 224:
        info["madds_target"] = REFERENCE_MADDS[config_name]
        info["madds_deviation"] = total_madds / REFERENCE_MADDS[config_name] - 1.0

    allocated = None
    if allocate:
        allocated = count_params(build_model(config, seed=0))
        info["allocated_params"] = allocated

    if as_json:
        click.echo(json.dumps(info, indent=2))
    else:
        click.echo(f"config        {config_name}")
        for key in ("stage1_dim", "stage2_dim", "num_outlookers", "num_transformers",
                    "outlooker_heads", "transformer_heads", "kernel", "stride",
                    "num_class_blocks", "drop_path_rate", "stage1_kind"):
            click.echo(f"{key:<18} {getattr(config, key)}")
        click.echo(f"grids          {config.stage1_grid}x{config.stage1_grid} -> "
                   f"{config.stage2_grid}x{config.stage2_grid}")
        click.echo(f"params         {params:,}")
        if "params_deviation" in info:
            click.echo(f"  vs target    {info['params_target']:,.0f} "
                       f"({info['params_deviation']:+.2%})")
        click.echo(f"madds @{size:<6} {total_madds:,}")
        if "madds_deviation" in info:
            click.echo(f"  vs target    {info['madds_target']:,.0f} "
                       f"({info['madds_deviation']:+.2%})")
        if allocated is not None:
            click.echo(f"allocated      {allocated:,}")
    if allocated is not None and allocated != params:
        click.echo(f"symbolic/allocated mismatch: {params:,} != {allocated:,}", err=True)
        sys.exit(1)


@main.command(name="oracle-check")
@click.option("--seeds", type=click.IntRange(min=1), default=20, show_default=True,
              help="Seeds per layer kind.")
@click.option("--tolerance", type=click.FloatRange(min=0), default=1e-6, show_default=True,
              callback=_finite)
@click.option("--kinds", default=",".join(ORACLE_KINDS), show_default=True)
@click.option("--json", "as_json", is_flag=True)
def oracle_check_cmd(seeds: int, tolerance: float, kinds: str, as_json: bool) -> None:
    """Compare layer forwards against loop-level references."""
    picked = _parse_csv(kinds, ORACLE_KINDS, "kind")
    _echo_report(oracle_check(seeds, tolerance, picked), as_json)


@main.command()
@click.option("--seeds", type=click.IntRange(min=1), default=10, show_default=True,
              help="Seeds per op/layer kind.")
@click.option("--tolerance", type=click.FloatRange(min=0), default=1e-4, show_default=True,
              callback=_finite)
@click.option("--kinds", default=",".join(GRADCHECK_KINDS), show_default=True)
@click.option("--json", "as_json", is_flag=True)
def gradcheck(seeds: int, tolerance: float, kinds: str, as_json: bool) -> None:
    """Verify tape gradients against central finite differences."""
    picked = _parse_csv(kinds, GRADCHECK_KINDS, "kind")
    _echo_report(gradient_check(seeds, tolerance=tolerance, kinds=picked), as_json)


@main.command()
@click.option("--kinds", default=",".join(LAYER_KINDS), show_default=True)
@click.option("--sizes", default="28x28", show_default=True,
              help="Comma list of HxW feature-map sizes.")
@click.option("--channels", type=int, default=192, show_default=True)
@click.option("--kernel", type=int, default=3, show_default=True)
@click.option("--heads", type=int, default=6, show_default=True)
@click.option("--reps", type=click.IntRange(min=1), default=5, show_default=True)
@click.option("--csv", "csv_path", default=None, callback=_writable,
              type=click.Path(dir_okay=False, allow_dash=True),
              help="Write rows as CSV to this path ('-' for stdout).")
def bench(kinds: str, sizes: str, channels: int, kernel: int, heads: int,
          reps: int, csv_path: str | None) -> None:
    """Time layer forwards; report peak traced memory and analytic vs measured multiply-adds."""
    picked = _parse_csv(kinds, LAYER_KINDS, "kind")
    shapes = []
    for token in sizes.split(","):
        try:
            h, w = (int(v) for v in token.lower().split("x"))
            shapes.append((h, w))
        except ValueError as exc:
            raise click.UsageError(f"bad size {token!r}; expected HxW like 28x28") from exc

    rows = []
    for height, width in shapes:
        for kind in picked:
            rng = np.random.default_rng(0)
            try:
                query = CostQuery(height, width, channels, kernel, heads)
                layer = build_layer(kind, query, rng, dtype=np.float32)
            except (GeometryError, ShapeError) as exc:
                raise click.UsageError(str(exc)) from exc
            x = layer_input(kind, query, rng, dtype=np.float32)
            measured = measured_madds(layer, x)
            peak = _forward_peak_mb(layer, x)
            times = []
            for _ in range(reps):
                start = time.perf_counter()
                layer.forward(x)
                times.append(time.perf_counter() - start)
            analytic = madds(query, kind)
            rows.append({
                "kind": kind, "height": height, "width": width,
                "channels": channels, "kernel": kernel, "heads": heads,
                "median_ms": round(1e3 * statistics.median(times), 3),
                "peak_mb": round(peak, 3),
                "analytic_madds": analytic, "measured_madds": measured,
                "measured_over_analytic": round(measured / analytic, 4),
            })

    if csv_path is not None:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
        if csv_path == "-":
            click.echo(buf.getvalue(), nl=False)
        else:
            Path(csv_path).write_text(buf.getvalue())
            click.echo(f"wrote {len(rows)} rows to {csv_path}")
    else:
        header = (f"{'kind':<6} {'size':<8} {'median_ms':>10} {'peak_mb':>9} "
                  f"{'analytic':>14} {'measured':>14} {'ratio':>7}")
        click.echo(header)
        for r in rows:
            click.echo(f"{r['kind']:<6} {r['height']}x{r['width']:<6} "
                       f"{r['median_ms']:>10.3f} {r['peak_mb']:>9.3f} {r['analytic_madds']:>14,} "
                       f"{r['measured_madds']:>14,} {r['measured_over_analytic']:>7.4f}")


def _forward_peak_mb(layer, x) -> float:
    """Traced peak, in MB, that one forward of ``layer`` on ``x`` adds to what is allocated.

    An active tracemalloc session is left running, with its peak reset.
    """
    outer = tracemalloc.is_tracing()
    if not outer:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        layer.forward(x)
        return (tracemalloc.get_traced_memory()[1] - start) / 1e6
    finally:
        if not outer:
            tracemalloc.stop()


@main.command(name="train-toy")
@click.option("--config", "config_name", default="tiny", show_default=True)
@click.option("--steps", type=click.IntRange(min=1), default=500, show_default=True)
@click.option("--lr", type=click.FloatRange(min=0, min_open=True), default=2e-3,
              show_default=True, callback=_finite)
@click.option("--batch-size", type=click.IntRange(min=1), default=8, show_default=True)
@click.option("--weight-decay", type=click.FloatRange(min=0), default=0.01, show_default=True,
              callback=_finite)
@click.option("--warmup", type=click.IntRange(min=0), default=50, show_default=True,
              help="Linear learning-rate ramp over this many first steps.")
@click.option("--per-class", type=click.IntRange(min=1), default=8, show_default=True,
              help="Synthetic images per class.")
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--log-every", type=click.IntRange(min=0), default=50, show_default=True)
@click.option("--min-accuracy", type=click.FloatRange(0, 1), default=0.0, show_default=True,
              callback=_finite, help="Exit 1 if final train accuracy lands below this.")
@click.option("--json", "as_json", is_flag=True)
def train_toy_cmd(config_name: str, steps: int, lr: float, batch_size: int,
                  weight_decay: float, warmup: int, per_class: int, seed: int,
                  log_every: int, min_accuracy: float, as_json: bool) -> None:
    """Fit the tiny preset on the synthetic set; smoke-tests the whole stack."""
    config = _resolve_config(config_name)
    try:
        record = train_toy(config, steps=steps, lr=lr, batch_size=batch_size,
                           weight_decay=weight_decay, warmup=warmup,
                           per_class=per_class, seed=seed,
                           log_every=0 if as_json else log_every)
    except DivergenceError as exc:
        click.echo(f"diverged: {exc}", err=True)
        sys.exit(1)
    if as_json:
        click.echo(json.dumps(record.to_dict()))
    else:
        click.echo(f"final loss {record.final_loss:.4f}  "
                   f"train accuracy {record.train_accuracy:.3f}  "
                   f"({record.seconds:.1f}s, {record.steps} steps)")
    if record.train_accuracy < min_accuracy:
        click.echo(f"accuracy {record.train_accuracy:.3f} below {min_accuracy}", err=True)
        sys.exit(1)


@main.command(name="gen-data")
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False),
              callback=_writable)
@click.option("--classes", type=click.IntRange(min=1), default=10, show_default=True)
@click.option("--size", type=click.IntRange(min=1), default=32, show_default=True)
@click.option("--per-class", type=click.IntRange(min=1), default=8, show_default=True)
@click.option("--noise", type=click.FloatRange(min=0), default=0.25, show_default=True,
              callback=_finite)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
def gen_data(out_path: str, classes: int, size: int, per_class: int,
             noise: float, seed: int) -> None:
    """Write the synthetic classification set to an .npz file."""
    images, labels = gen_synthetic(classes, size, per_class, noise, seed)
    with open(out_path, "wb") as f:   # a file handle, so savez adds no .npz suffix
        np.savez(f, images=images, labels=labels)
    click.echo(f"wrote {images.shape[0]} images ({size}x{size}x3, "
               f"{classes} classes) to {out_path}")


if __name__ == "__main__":
    main()
