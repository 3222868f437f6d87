"""Command-line front end.

Subcommands: `evaluate` one state, `sweep` a noise family over a p grid,
`haar-study` detection rates under random local rotations, `simulate` a
finite-shot counting experiment, and `bound` for the minimized single-party
variance bound. Output is CSV (default) or JSON, to stdout or --out; runs
are bit-identical for identical arguments and seed. `evaluate` prints
`sweep`'s value columns for its one state, from the same builder
(`_exact_columns`), plus four verdicts.

Every command computes its whole result first and returns its outputs:
one (columns, names, path) each, every column one float, int or str numpy
array (of length 1 for one-row outputs). `main` then writes them in order,
and `_write_outputs` formats each in blocks of STACK_CHUNK rows, every row
in one typed `%` template fill: a float or int block is formatted by the
fill itself (`%.12g` or `%r`; `%d`), and only string cells, and a JSON
float block that holds NaN or an infinity, are made text first. A CSV
string cell holding a comma, quote, CR or LF is quoted. A file gets each
block unbuffered, as strict UTF-8 bytes, written until none is left. If a
write fails, the partial file and every file the command wrote before it
are removed, unless the path is not a regular file (such as /dev/stdout).

`main(argv)` may be called many times in one process. One plain-data
table, `_COMMANDS`, holds each command's run function and help and each
flag's dest, type, choices, default, required and help. An argv of the
form `COMMAND (--flag value)*`, with exact flags, no dash-leading value and
every required flag, is read from that table with dict lookups into a
`types.SimpleNamespace`; any other argv (help, `--flag=value`, an
abbreviation, an unknown command or flag, a bad or missing value) goes to
the full argparse parser, built from the same table on its first use and
shared after it, whose usage, help and error text are the ones printed.
Only that parser imports `argparse`, and only a JSON output or a `file:`
spec imports `json`: nothing a command does not use is imported or built
at import.

Exit codes: 0 success, 2 usage or input error (also an input too large for
memory, or a seed outside [0, 2**64)), 3 internal numerical error, 141
(128 + SIGPIPE) when the reader of the output closes it early, as `| head`
does; nothing is printed then.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import re
import stat
import sys
from types import SimpleNamespace

import numpy as np

from . import measurement, states, witness
from .linalg import NumericsError

SWEEP_COLUMNS = ("p", "l2", "ml2", "l3", "ml3", "ppt_min_eig")
# `sweep`'s value columns for one state, then each witness's verdict
EVALUATE_COLUMNS = ("state", *SWEEP_COLUMNS[1:], *("verdict_" + name for name in SWEEP_COLUMNS[1:5]))
SIMULATE_COLUMNS = (
    "state",
    "shots",
    "l2",
    "l2_se",
    "ml2",
    "ml2_se",
    "l3",
    "l3_se",
    "ml3",
    "ml3_se",
)
STUDY_COLUMNS = (
    "samples",
    "seed",
    "l3_mean",
    "ml3_mean",
    "l3_detect_fraction",
    "ml3_detect_fraction",
    "ml3_only_count",
)
SAMPLE_COLUMNS = ("sample", "l3", "ml3", "ppt_min_eig")
BOUND_COLUMNS = ("observables", "bound")

_OBSERVABLE_TOKENS = {"sx": states.SX, "sy": states.SY, "sz": states.SZ}

# states per stacked kernel pass in `run_sweep` and `run_haar_study`, and rows
# per block of formatted output
STACK_CHUNK = 4096

_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_CSV_SPECIAL = re.compile(r'[,"\r\n]')


def _csv_string(v: str) -> str:
    """A CSV string cell: quoted, with its quotes doubled, if it holds a comma,
    quote, CR or LF (RFC 4180), and as it is otherwise."""
    return '"' + v.replace('"', '""') + '"' if _CSV_SPECIAL.search(v) else v


@functools.cache
def _string_rule(fmt: str):
    """The text of a string cell: `_csv_string`, or for JSON the json module's ASCII string literal.

    `json` is imported here, on the first JSON output, not with the module.
    """
    if fmt == "csv":
        return _csv_string
    from json.encoder import encode_basestring_ascii

    return encode_basestring_ascii


# the `%` conversion of a float block (JSON: a finite block only)
_FLOAT_SLOTS = {"csv": "%.12g", "json": "%r"}


def _slot(block: np.ndarray, fmt: str):
    """The `%` conversion of one block of one column, and the values it converts.

    An int block (dtype kind `i` or `u`) is converted by the row's `%` fill
    itself with `%d`, a float block with `%.12g` (CSV) or `%r` (JSON, if no
    cell is NaN or infinite); the cells of a string block (kind `U`), and of
    a JSON float block that is not finite, are made text first, by one
    C-level map over its values, and filled in with `%s`.
    """
    kind, values = block.dtype.kind, block.tolist()
    if kind in "iu":
        return "%d", values
    if kind == "f":
        if fmt == "csv" or np.isfinite(block).all():
            return _FLOAT_SLOTS[fmt], values
        text = list(map(float.__repr__, values))  # with the json module's names for NaN and infinities
        return "%s", list(map(_JSON_NONFINITE.get, text, text))
    return "%s", list(map(_string_rule(fmt), values))


def _blocks(columns: dict, names, fmt: str):
    """The document text, one block of STACK_CHUNK rows at a time.

    Each row is one `%` fill of a template with one typed slot per column
    (`_slot`). The JSON text is that of `json.dumps(rows, indent=2) + "\n"`
    for the row objects keyed by `names`; the CSV text is a header line and
    one line per row.
    """
    n = len(columns[names[0]])
    if fmt == "json":
        keys = [_string_rule(fmt)(name).replace("%", "%%") for name in names]
        lead, sep, end, empty = "[\n  ", ",\n  ", "\n]\n", "[]\n"
    else:
        header = ",".join(names) + "\n"
        lead, sep, end, empty = header, "", "", header
    for start in range(0, n, STACK_CHUNK):
        slots, cells = zip(*(_slot(columns[name][start:start + STACK_CHUNK], fmt) for name in names))
        if fmt == "json":
            template = "{\n    " + ",\n    ".join(map("%s: %s".__mod__, zip(keys, slots))) + "\n  }"
        else:
            template = ",".join(slots) + "\n"
        yield lead + sep.join(map(template.__mod__, zip(*cells)))
        lead = sep
    yield end if n else empty


def _write_outputs(outputs, fmt: str) -> None:
    """Write each (columns, names, path) in order as CSV or JSON text, block by block.

    No whole document is held in memory; a path of None is stdout. If a
    write fails, its partial file and every file written before it are
    closed and removed, regular files only (a device such as /dev/stdout
    stays), before the error is raised again.
    """
    opened = []
    try:
        for columns, names, path in outputs:
            blocks = _blocks(columns, names, fmt)
            if path is None:
                sys.stdout.writelines(blocks)
                sys.stdout.flush()  # a closed pipe shows here, inside `main`'s error handling
                continue
            # unbuffered bytes; a path not opened is left alone
            fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
            opened.append(path)
            try:
                for block in blocks:
                    data = memoryview(block.encode())  # strict UTF-8: a lone surrogate raises
                    while data:  # until every byte is written: a short count never truncates
                        data = data[os.write(fd, data):]
            finally:
                os.close(fd)
    except BaseException:
        for path in opened:
            with contextlib.suppress(OSError):
                if stat.S_ISREG(os.lstat(path).st_mode):
                    os.unlink(path)
        raise


def _one_row(row: dict) -> dict:
    """The columns of a one-row output, as float64, int64 or `U` arrays of one.

    A seed from 2**63 on is uint64. A `U` array drops a string's trailing
    NULs, but argv cannot carry a NUL.
    """
    return {name: np.array([value]) for name, value in row.items()}


def _exact_columns(stack: np.ndarray) -> tuple:
    """L2, ML2, L3, ML3 and the PPT minimum of an (N, 4, 4) stack: `sweep`'s value columns, N long each."""
    return (*witness.evaluate_standard(stack), witness.ppt_min_eigenvalues(stack))


def run_evaluate(args):
    """`sweep`'s value columns for one state, from `_exact_columns` on its stack of one, and the verdicts."""
    values = _exact_columns(states.parse_state_spec(args.state).matrix[None])
    sets = witness.standard_sets()
    bounds = (sets["L2"].separable_bound,) * 2 + (sets["L3"].separable_bound,) * 2
    verdicts = [np.array([witness.verdict_for(v[0], bound).value]) for v, bound in zip(values, bounds)]
    columns = dict(zip(EVALUATE_COLUMNS, (np.array([args.state]), *values, *verdicts)))
    return [(columns, EVALUATE_COLUMNS, args.out)]


def run_sweep(args):
    """Witness values and the PPT minimum over a noise-mixture grid.

    The grid is evaluated in stacked chunks of STACK_CHUNK points; each row
    depends only on its p, so the rows do not depend on the chunk size.
    Every chunk is finished before this returns; the result is one array
    per column.
    """
    try:
        kind = states.NoiseKind(args.noise)
    except ValueError:
        raise ValueError(f"unknown noise family {args.noise!r}; expected werner or polarized")
    if args.p_steps < 2:
        raise ValueError("need at least 2 grid points")
    if args.p_steps > sys.maxsize // 8:  # past numpy's array size; np.linspace raises IndexError near 2**63
        raise ValueError(f"a grid of {args.p_steps} points is too large for memory")
    if math.isfinite(args.p_stop - args.p_start):
        grid = np.linspace(args.p_start, args.p_stop, args.p_steps)
    else:  # a NaN or infinite endpoint or span has no grid; an endpoint is then
        grid = np.array([args.p_start, args.p_stop])  # outside [0, 1], and this names it
    chunks = []
    for start in range(0, len(grid), STACK_CHUNK):
        stack = states.noise_mixtures(grid[start:start + STACK_CHUNK], kind, base=args.base)
        chunks.append(_exact_columns(stack))
    return [(dict(zip(SWEEP_COLUMNS, (grid, *_joined(chunks)))), SWEEP_COLUMNS, args.out)]


def _joined(chunks: list) -> tuple:
    """Each column of a list of per-chunk column tuples, whole; one chunk's columns are not copied."""
    return chunks[0] if len(chunks) == 1 else tuple(map(np.concatenate, zip(*chunks)))


def _check_seed(seed: int) -> None:
    """Raise ValueError unless `seed` is in [0, 2**64).

    Streams are keyed by the seed mod 2**64, so a seed outside that range
    would draw the samples of another seed while the output names its own.
    """
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed {seed} is outside [0, 2**64)")


def run_haar_study(kind: str, samples: int, seed: int):
    """Detection-rate study: random local rotations of a Bell state.

    Returns the summary row and the per-sample columns, arrays keyed by
    SAMPLE_COLUMNS. Sample i uses the stream keyed (seed, i), so any subset
    of samples can be recomputed independently and concurrently. Samples
    are evaluated in stacked chunks of STACK_CHUNK (one kernel pass each);
    each row depends only on (seed, i), so the rows do not depend on the
    chunk size.
    """
    chunks = []
    summary = _study_summary(kind, samples, seed, chunks)
    return summary, dict(zip(SAMPLE_COLUMNS, (np.arange(samples), *_joined(chunks))))


def _study_summary(kind: str, samples: int, seed: int, chunks: list | None = None) -> dict:
    """The summary row of `run_haar_study`; each chunk's per-sample columns go to `chunks`.

    Without `chunks` only running totals outlive a chunk, so memory does not grow with `samples`.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    _check_seed(seed)
    l3_set = witness.standard_sets()["L3"]
    bound = l3_set.separable_bound
    sums = np.empty((2, 0))  # the l3 and ml3 sums so far
    l3_detect = ml3_detect = ml3_only = 0
    for start in range(0, samples, STACK_CHUNK):
        indices = range(start, min(start + STACK_CHUNK, samples))
        psi, stack = states.haar_rotated_bell_states(kind, seed, indices)
        l3, ml3 = witness.evaluate_many(stack, l3_set)
        if chunks is not None:
            chunks.append((l3, ml3, witness.pure_ppt_min_eigenvalues(psi)))
        # add in sample order, one term at a time (cumsum, not pairwise np.sum)
        sums = np.cumsum(np.concatenate([sums, [l3, ml3]], axis=1), axis=1)[:, -1:]
        l_hit = witness.detected(l3, bound)
        ml_hit = witness.detected(ml3, bound)
        l3_detect += int(np.count_nonzero(l_hit))
        ml3_detect += int(np.count_nonzero(ml_hit))
        ml3_only += int(np.count_nonzero(ml_hit & ~l_hit))
    return {
        "samples": samples,
        "seed": seed,
        "l3_mean": float(sums[0, 0]) / samples,
        "ml3_mean": float(sums[1, 0]) / samples,
        "l3_detect_fraction": l3_detect / samples,
        "ml3_detect_fraction": ml3_detect / samples,
        "ml3_only_count": ml3_only,
    }


def _same_regular_file(a: str, b: str) -> bool:
    """True if paths `a` and `b` name one regular file, or one path still to be created.

    Two names of one device, such as /dev/stdout, are not one regular file.
    """
    try:
        stat_a, stat_b = os.stat(a), os.stat(b)
    except OSError:  # a path to be created is another only if it resolves to it
        pass
    else:
        return os.path.samestat(stat_a, stat_b) and stat.S_ISREG(stat_a.st_mode)
    # only a symbolic link can give a new file another name than its own
    if os.path.basename(a) != os.path.basename(b) and not (os.path.islink(a) or os.path.islink(b)):
        return False
    return os.path.realpath(a) == os.path.realpath(b)


def run_study_command(args):
    kind = "psi-" if args.state == "singlet" else args.state
    if kind not in states.BELL_KINDS:
        raise ValueError(f"haar-study expects a Bell state, got {args.state!r}")
    if args.per_sample is None:  # no per-sample column is kept, or its PPT value computed
        return [(_one_row(_study_summary(kind, args.samples, args.seed)), STUDY_COLUMNS, args.out)]
    if args.out is not None and _same_regular_file(args.per_sample, args.out):
        # the summary would overwrite the per-sample rows written just before it
        raise ValueError(f"--per-sample and --out name the same file {args.out!r}")
    summary, columns = run_haar_study(kind, args.samples, args.seed)
    per_sample = (columns, SAMPLE_COLUMNS, args.per_sample)
    return [per_sample, (_one_row(summary), STUDY_COLUMNS, args.out)]


# perfbench's `shots` workload and its tracer call the finite-shot draw here
simulate_counts = measurement.simulate_counts


def run_simulate(args):
    if args.shots < 2:
        raise ValueError("need at least 2 shots per basis to estimate a variance")
    _check_seed(args.seed)
    counts = measurement.draw_counts(states.parse_state_spec(args.state), args.shots, args.seed)
    columns = _one_row({"state": args.state, "shots": args.shots})
    columns.update(zip(SIMULATE_COLUMNS[2:], measurement.estimate_standard(counts[None])))
    return [(columns, SIMULATE_COLUMNS, args.out)]


def run_bound(args):
    tokens = [t.strip() for t in args.observables.split(",") if t.strip()]
    if not tokens:
        raise ValueError("need at least one observable (from sx, sy, sz)")
    try:
        obs = [_OBSERVABLE_TOKENS[t] for t in tokens]
    except KeyError as exc:
        raise ValueError(f"unknown observable {exc.args[0]!r}; expected sx, sy or sz") from exc
    value = witness.local_bound(obs)
    return [(_one_row({"observables": "+".join(tokens), "bound": value}), BOUND_COLUMNS, args.out)]


def _flag(flag: str, *, type=None, choices=None, default=None, required=False, help=None, dest=None):
    """One flag's entry in `_COMMANDS`: its `add_argument` keywords, with the dest argparse derives."""
    return flag, {"dest": dest or flag[2:].replace("-", "_"), "type": type, "choices": choices,
                  "default": default, "required": required, "help": help}


# the flags every command takes, after its own
_OUTPUT_FLAGS = (
    _flag("--out", help="output path (default stdout)"),
    _flag("--format", choices=("csv", "json"), default="csv", dest="fmt"),
)
_SEED = _flag("--seed", type=int, default=0, help="stream seed, in [0, 2**64)")
# by name: each command's run function, its help, and its flags in help order
_COMMANDS = {
    name: (run, help, dict(flags + _OUTPUT_FLAGS))
    for name, run, help, flags in (
        ("evaluate", run_evaluate, "exact witness values for one state", (
            _flag("--state", required=True, help='state spec, e.g. "singlet" or "werner:p=0.5"'),
        )),
        ("sweep", run_sweep, "witness values over a noise-mixture grid", (
            _flag("--noise", required=True, help="noise family: werner or polarized"),
            _flag("--base", default="psi-", help="Bell state mixed with the noise"),
            _flag("--p-start", type=float, default=0.0),
            _flag("--p-stop", type=float, default=1.0),
            _flag("--p-steps", type=int, default=101),
        )),
        ("haar-study", run_study_command, "detection rates under Haar-random local rotations", (
            _flag("--state", default="psi-", help="Bell state to rotate"),
            _flag("--samples", type=int, default=10000),
            _SEED,
            _flag("--per-sample", help="also write one row per sample here"),
        )),
        ("simulate", run_simulate, "finite-shot coincidence-count estimate", (
            _flag("--state", required=True),
            _flag("--shots", type=int, required=True, help="shots per basis"),
            _SEED,
        )),
        ("bound", run_bound, "minimized single-party variance bound", (
            _flag("--observables", required=True, help="comma-separated from sx, sy, sz"),
        )),
    )
}
# what `_parse_args` reads of each command: its flags, its namespace defaults
# (`command` and `run` included) and its required flags
_PLAIN = {
    name: (flags, {"command": name, **{f["dest"]: f["default"] for f in flags.values()}, "run": run},
           {flag for flag, f in flags.items() if f["required"]})
    for name, (run, _, flags) in _COMMANDS.items()
}


@functools.cache
def build_parser():
    """The `lurwit` argparse parser, built from `_COMMANDS` on the first call and shared after it.

    Only help, usage errors and argvs that `_parse_args` cannot read from
    the table reach it, and `argparse` is imported here. Every call returns
    the same parser, so callers must not change it. Sharing it is safe:
    `parse_args` leaves the parser as it was and makes a fresh namespace
    each time, and usage, error and help text are formatted when they are
    printed. `build_parser.__wrapped__()` builds a fresh parser.
    """
    import argparse

    parser = argparse.ArgumentParser(
        prog="lurwit",
        description="Uncertainty-sum entanglement witnesses for two-qubit states",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (run, help, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help)
        for flag, keywords in flags.items():
            p.add_argument(flag, **keywords)
        p.set_defaults(run=run)
    return parser


def _parse_args(argv):
    """`build_parser().parse_args(argv)`, read from `_COMMANDS` where it can be.

    An argv of the form `COMMAND (--flag value)*` with every flag exact, no
    value that starts with `-` (so no `--` anywhere) and every required flag
    given is read with dict lookups: each value is converted by its flag's
    `type` and checked against its `choices`, as argparse does, onto a new
    `SimpleNamespace` of the command's defaults, with the fields argparse
    gives (`command` and `run` included). Every other argv (help,
    `--flag=value`, an abbreviation, a dash-leading value, an unknown command
    or flag, a bad, missing or odd-count value) goes to the full parser, so
    its usage, help and error text and exit code are what the user sees.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    plain = _PLAIN.get(argv[0]) if len(argv) % 2 else None
    if plain is not None:
        flags, defaults, required = plain
        args = SimpleNamespace(**defaults)
        for flag, text in zip(argv[1::2], argv[2::2]):  # a break leaves the argv to the full parser
            f = flags.get(flag)
            if f is None or text.startswith("-"):
                break
            try:
                value = text if f["type"] is None else f["type"](text)
            except (TypeError, ValueError):
                break
            if f["choices"] is not None and value not in f["choices"]:
                break
            setattr(args, f["dest"], value)
        else:
            if required.issubset(argv[1::2]):
                return args
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        _write_outputs(args.run(args), args.fmt)
    except BrokenPipeError:
        _detach_closed_stdout()
        return 141
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericsError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    return 0


def _detach_closed_stdout() -> None:
    """Point a stdout whose reader has gone at os.devnull.

    Output still buffered for a closed pipe would otherwise raise again in
    the flush at interpreter exit. Only a stream with a real file descriptor
    can be the closed pipe, so an in-memory stdout is left alone.
    """
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def console_main() -> None:
    raise SystemExit(main())
