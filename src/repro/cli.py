"""Command-line interface: ``python -m repro <command>``.

The CLI is a *thin, generated* frontend over the :mod:`repro.api`
facade: every subcommand is one entry of the workload registry
(:mod:`repro.api.workloads`), its flags are generated from the
workload's declared parameters, and the shared execution surface —
``--jobs/--chunk``, ``--store/--resume``, ``--shard``, ``--format/
--out`` — is parsed once into a single
:class:`~repro.api.ExecutionOptions` and interpreted identically for
every command.  A command body is pure dispatch: build the
:class:`~repro.api.RunRequest`, evaluate it through
:class:`~repro.api.Workbench`, print the workload's rendering.

Commands (see ``python -m repro --help``):

* ``fig4``/``fig5``/``fig2`` — regenerate the paper's figures.
* ``validate``  — Theorem 1 fuzzing campaign against the simulator.
* ``study``     — acceptance-ratio schedulability study.
* ``sweep``     — large-scale batch Q sweep streamed to JSONL/CSV.
* ``campaign``  — run a declarative scenario campaign (spec file or
  built-in name) over any registered scenario family.
* ``merge``     — combine shard stores and re-emit the final result
  file, byte-identical to a single unsharded run.
* ``check``     — run the domain-invariant static-analysis pass
  (:mod:`repro.checks`): determinism, worker purity, async hygiene,
  concurrency and fork safety; non-zero exit on any live finding.
* ``families``  — list the registered scenario families and their axes.

Every sweep-shaped command (``fig5``, ``study``, ``sweep``,
``campaign``) accepts ``--store`` (checkpoint into a persistent
:mod:`repro.store` cache), ``--resume`` (continue an interrupted run,
final output byte-identical to an uninterrupted one) and ``--shard
i/N`` (deterministically partition the grid across machines; combine
with ``merge``).  ``--jobs N`` fans work over the batch engine's
worker pool with bit-identical results for every ``N``.  A worker
failure aborts with a clear message and exit code 1; invalid arguments
or incompatible stores exit 2; ``Ctrl-C`` exits 130 — uniformly, with
a resume hint whenever a store was attached.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Sequence

from repro.api.options import EXECUTION_FLAGS, format_shard, parse_shard

__all__ = ["build_parser", "main", "parse_shard", "format_shard"]

def _add_parameter(parser: argparse.ArgumentParser, param) -> None:
    """Generate the argparse argument for one declared parameter."""
    kwargs: dict = {"help": param.help or None}
    if param.choices is not None:
        kwargs["choices"] = list(param.choices)
    if param.type is not None and param.type is not bool:
        kwargs["type"] = param.type
    if param.metavar is not None:
        kwargs["metavar"] = param.metavar
    if param.positional:
        if param.repeatable:
            kwargs["nargs"] = "+"
        parser.add_argument(param.name, **kwargs)
        return
    # Multi-word parameters render as dashed flags (--ready-file);
    # argparse maps them back to the underscored dest automatically.
    flag = param.name.replace("_", "-")
    from repro.api.workloads import REQUIRED

    if param.type is bool:
        kwargs.pop("metavar", None)
        kwargs["action"] = "store_true"
        kwargs["default"] = (
            False if param.default is REQUIRED else param.default
        )
    elif param.repeatable:
        kwargs["action"] = "append"
        kwargs["default"] = []
        kwargs.setdefault("metavar", "KEY=VALUE")
    else:
        kwargs["default"] = (
            None if param.default is REQUIRED else param.default
        )
    parser.add_argument(f"--{flag}", **kwargs)


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser from the workload registry."""
    from repro import __version__
    from repro.api.workloads import get_workload, workload_names

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the paper's figures and validation runs.",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in workload_names():
        workload = get_workload(name)
        command = sub.add_parser(name, help=workload.summary)
        for param in workload.parameters:
            if not param.hidden:
                _add_parameter(command, param)
        for group, flags in EXECUTION_FLAGS.items():
            if group in workload.flags:
                for flag, kwargs in flags:
                    command.add_argument(flag, **dict(kwargs))
        command.set_defaults(run=_dispatch, workload=workload)
    return parser


def _options_from_args(args: argparse.Namespace):
    """Collect the shared execution flags into one ExecutionOptions."""
    from repro.api import ExecutionOptions, SinkSpec

    # --format/--out belong to ExecutionOptions only for workloads
    # that enabled the sink group; a workload *parameter* of the same
    # name (e.g. check's --format text|json) must not leak into the
    # sink-format validation.
    has_sink = "sink" in args.workload.flags
    out = getattr(args, "out", None) if has_sink else None
    fmt = getattr(args, "format", "jsonl") if has_sink else "jsonl"
    return ExecutionOptions(
        jobs=getattr(args, "jobs", None),
        chunk=getattr(args, "chunk", None),
        store=getattr(args, "store", None),
        resume=getattr(args, "resume", False),
        shard=getattr(args, "shard", None),
        sinks=(SinkSpec(out, fmt),) if out is not None else (),
        format=fmt,
        fail_after=getattr(args, "fail_after", None),
    )


def _dispatch(args: argparse.Namespace) -> int:
    """Evaluate one parsed command through the facade."""
    from repro.api import RunRequest, Workbench

    workload = args.workload
    params = tuple(
        (param.name, getattr(args, param.name))
        for param in workload.parameters
        if not param.hidden and getattr(args, param.name) is not None
    )
    request = RunRequest(
        workload=workload.name,
        params=params,
        options=_options_from_args(args),
    )
    result = Workbench().run(request)
    print(workload.render(result))
    return 0 if result.ok else 1


def _interrupted(args: argparse.Namespace) -> int:
    """Uniform Ctrl-C handling: exit 130 with a resume hint."""
    command = getattr(args, "command", "run")
    workload = getattr(args, "workload", None)
    if workload is not None and "store" in workload.flags:
        if getattr(args, "store", None) is not None:
            print(
                f"{command} interrupted — completed scenarios are "
                f"checkpointed in {args.store}; rerun with "
                "--store/--resume to continue",
                file=sys.stderr,
            )
        else:
            print(
                f"{command} interrupted — no --store given, nothing "
                "was checkpointed",
                file=sys.stderr,
            )
    else:
        print(f"{command} interrupted", file=sys.stderr)
    return 130


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code.

    Failures exit non-zero with one clear message on stderr instead of
    a traceback: a worker failure (:class:`repro.engine.WorkerError`,
    pinpointing the failing scenario) exits 1, a failed run
    (:class:`repro.api.RunError`) exits 1, invalid arguments or
    incompatible stores (:class:`ValueError`) exit 2, and
    ``KeyboardInterrupt`` exits 130 for every command — with a resume
    hint when a store was attached — and a closed stdout pipe
    (``check --format json | head``) exits 141 silently, never with a
    traceback.
    """
    from repro.api import RunError
    from repro.engine import WorkerError

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except BrokenPipeError:
        # stdout's reader went away (e.g. piped into `head`); the
        # Unix convention is to die quietly with SIGPIPE's code.
        # Reopen stdout on devnull so the interpreter's shutdown
        # flush cannot raise the same error again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141
    except KeyboardInterrupt:
        return _interrupted(args)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
