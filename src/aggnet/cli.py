"""Command line front end: analyze, simulate, sweep, verify."""
from __future__ import annotations

import json
import sys

import click

from . import checks, flows, fmux, harness
from .errors import AggNetError
from .graph import load_graph


def _parse_function(name, k, alphabet_size):
    cfg = {"name": name}
    if k is not None:
        cfg["k"] = k
    if alphabet_size is not None:
        cfg["alphabet_size"] = alphabet_size
    return cfg


class _Group(click.Group):
    """Reports the package's own errors as one-line usage errors (exit 1)."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except AggNetError as exc:
            raise click.ClickException(str(exc)) from exc


@click.group(cls=_Group)
def main():
    """Capacity analysis and simulation for in-network aggregation."""


@main.command()
@click.option("--graph", "graph_path", required=True, type=click.Path(exists=True))
@click.option("--schedules", "schedules_path", type=click.Path(exists=True),
              help="Schedule-set JSON; omitted means wired (all links at capacity).")
@click.option("--function", "func_name", default="parity",
              type=click.Choice(["parity", "max", "kth"]))
@click.option("--k", type=int, default=None)
@click.option("--alphabet-size", type=int, default=None)
@click.option("--trees", "trees_spec", default="all",
              help='"all" (enumerate) or a JSON file of parent maps to pack over.')
@click.option("--tree-limit", type=int, default=100_000)
@click.option("--output", "-o", type=click.Path(), default=None,
              help="Write the JSON report here instead of stdout.")
def analyze(graph_path, schedules_path, func_name, k, alphabet_size, trees_spec,
            tree_limit, output):
    """Bottleneck rate, optimal service split and an optimal tree packing."""
    g = load_graph(graph_path)
    func = fmux.function_from_config(_parse_function(func_name, k, alphabet_size))
    schedule_set = flows.load_schedule_set(schedules_path) if schedules_path else None
    analysis = flows.analyze(g, schedule_set, flows.load_trees(g, trees_spec, tree_limit))
    packing = analysis.packing.nonzero()
    report = {
        "delta_star": analysis.delta_star,
        "lambda_star": flows.max_refresh_rate(analysis.delta_star, func),
        "argmin_node": analysis.argmin_node,
        "cut": [list(l) for l in analysis.cut],
        "packing": [
            {"parents": {str(i): p for i, p in tree.parent_map.items()}, "weight": w}
            for tree, w in zip(packing.trees, packing.weights)
        ],
    }
    if analysis.sss_rule is not None:
        report["sss_rule"] = {str(idx): w for idx, w in sorted(analysis.sss_rule.weights.items())
                              if w > 1e-12}
    text = json.dumps(report, indent=2) + "\n"
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


@main.command()
@click.option("--model", required=True, type=click.Choice(["wireline", "wireless"]))
@click.option("--graph", "graph_path", required=True, type=click.Path(exists=True))
@click.option("--lambda", "lam", required=True, type=float)
@click.option("--function", "func_name", default="parity",
              type=click.Choice(["parity", "max", "kth"]))
@click.option("--k", type=int, default=None)
@click.option("--alphabet-size", type=int, default=None)
@click.option("--seed", required=True, type=int)
@click.option("--horizon", required=True, type=float)
@click.option("--sample-every", type=float, default=None)
@click.option("--schedules", "schedules_path", type=click.Path(exists=True))
@click.option("--trees", "trees_spec", default="all",
              help='"all" or a JSON file with {"trees": [{node: parent, ...}]}.')
@click.option("--policy", default="greedy-maxweight", type=click.Choice(harness.POLICIES))
@click.option("--debug", is_flag=True, help="Run with the invariant assertions on.")
@click.option("--out-prefix", default=None,
              help="Write <prefix>.csv and <prefix>.json (default: <model>_lam<l>_seed<s>).")
def simulate(model, graph_path, lam, func_name, k, alphabet_size, seed, horizon,
             sample_every, schedules_path, trees_spec, policy, debug, out_prefix):
    """One simulation run; emits a CSV time series and a JSON summary."""
    cfg = harness.ExperimentConfig(
        model=model,
        graph=graph_path,
        lambdas=[lam],
        seeds=[seed],
        horizon=horizon,
        sample_every=sample_every,
        function=_parse_function(func_name, k, alphabet_size),
        policy=policy,
        schedules=schedules_path,
        trees=trees_spec,
        debug=debug,
    )
    verdict, metrics = harness.run_point(cfg, lam, seed)
    prefix = out_prefix or f"{model}_lam{lam:g}_seed{seed}"
    csv_path = prefix + ".csv"
    if model == "wireline":
        harness.write_wireline_csv(metrics, csv_path)
        summary = {
            "completed": metrics.completed,
            "mean_latency": metrics.mean_latency,
            "max_in_flight": metrics.max_in_flight,
            "final_in_flight": metrics.final_in_flight,
            "reestablished": metrics.reestablished,
            "events": metrics.events,
        }
    else:
        harness.write_wireless_csv(metrics, csv_path)
        summary = {
            "completed": metrics.completed,
            "mean_latency": metrics.mean_latency,
            "max_backlog": metrics.max_backlog,
            "final_backlog": metrics.final_backlog,
            "per_tree_assigned": metrics.assigned_totals,
        }
    summary.update({
        "model": model,
        "lambda": lam,
        "seed": seed,
        "horizon": horizon,
        "verdict": verdict.verdict,
        "slope": verdict.slope,
        "max_queue": verdict.max_queue,
        "csv": csv_path,
    })
    with open(prefix + ".json", "w") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    click.echo(f"{verdict.verdict}  slope={verdict.slope:.4g}  -> {csv_path}")


def _csv_floats(_ctx, _param, value):
    return [float(x) for x in value.split(",")] if value else None


def _csv_ints(_ctx, _param, value):
    return [int(x) for x in value.split(",")] if value else None


@main.command(name="sweep")
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--graph", "graph_path", type=click.Path(exists=True), default=None)
@click.option("--model", type=click.Choice(["wireline", "wireless"]), default=None)
@click.option("--policy", type=click.Choice(harness.POLICIES), default=None)
@click.option("--lambdas", callback=_csv_floats, default=None,
              help="Comma-separated, overrides the config grid.")
@click.option("--seeds", callback=_csv_ints, default=None)
@click.option("--horizon", type=float, default=None)
@click.option("--sample-every", type=float, default=None)
@click.option("--output-dir", type=click.Path(), default=None)
@click.option("--workers", type=int, default=None)
def sweep_cmd(config_path, graph_path, model, policy, lambdas, seeds, horizon,
              sample_every, output_dir, workers):
    """Run the (lambda, seed) grid from a JSON experiment config.

    Every flag overrides its config-file counterpart.
    """
    cfg = harness.ExperimentConfig.from_json(
        config_path, graph=graph_path, model=model, policy=policy,
        lambdas=lambdas, seeds=seeds, horizon=horizon,
        sample_every=sample_every, output_dir=output_dir, workers=workers,
    )
    result = harness.sweep(cfg)
    summary = result.summary()
    click.echo(json.dumps(summary, indent=2))
    if not result.monotonic:
        click.echo("warning: verdicts are not monotone across the grid", err=True)


@main.command(name="verify")
@click.option("--suite", default="all", type=click.Choice([*checks.SUITES, "all"]))
@click.option("--output", "-o", type=click.Path(), default=None)
def verify_cmd(suite, output):
    """Run the invariant and proof checks; exit nonzero on any failure."""
    report = checks.verify(suite)
    text = json.dumps(report, indent=2) + "\n"
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    for name, results in report["suites"].items():
        for c in results:
            mark = "PASS" if c["passed"] else "FAIL"
            click.echo(f"[{mark}] {name}.{c['name']}: {c['detail']}")
    if not report["passed"]:
        sys.exit(1)


if __name__ == "__main__":
    main()
