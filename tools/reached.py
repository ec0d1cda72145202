"""Which functions of ``src/repro`` does no shipped driver ever enter?

Verify the traffic, don't guess it. This runs the drivers the repo
ships — the e2e benchmark at ``--smoke`` size, ``bench --quick``, the
chaos campaign (seeds 0-1 x ``paper``/``all_on`` x plain/``--shards 4``),
the four trace scenarios, ``systemtest`` and the examples;
``--with-experiments`` adds ``benchmarks/bench_e*.py`` (~8 min traced) —
with a ``sitecustomize`` directory on ``PYTHONPATH`` that installs
``sys.settrace`` in every (child) process, and prints every function of
``src/repro`` none of them entered, with per-file totals of functions
and of function lines (the ``def`` line through the last line of the
body).

    python3 tools/reached.py                    # the report (~3 min)

The drivers are independent processes, so they run ``os.cpu_count()``
at a time; each writes its own record file, and the report is the same
whatever the order they finish in.

:data:`KEPT` names every function that stays unreached, each with the
reason it stays (an open ROADMAP item that will drive it, a shipped
path no driver's data reaches, an error path, a test probe, a
``__repr__``). The run exits 1 when an unreached function is not in
the table, and when a function in the table was reached: its entry is
stale and leaves the table. The table is judged against the default
drivers; ``--with-experiments`` reaches more and only reports.

The report ends with the SQL census: the same tracer records every
distinct text ``repro.sql.parser.parse`` is called with — by the
drivers, and by ``benchmarks/perf``, which runs for its texts alone
(its layer micro-benchmarks call internals, so the functions it enters
are not counted) — and each text is parsed again here. Every AST node
type and optional field the texts use is printed with the number of
texts and one example: the SQL the system actually speaks. A recorded
text the parser rejects is printed and makes the exit status 1.

Last comes the index census: every recorded text on a ``dfm_*`` or
``dlk_*`` table is bound in :func:`plan_context` — the DLFM schema
under its pinned statistics, the way the shipped system plans it — and
each index there is printed with the number of texts whose plan reads
it. An index no text reads is upkeep every write of its table pays for
nothing, and makes the exit status 1. ``--plans PATH`` writes each of
those texts' access path as JSON: the golden of
``tests/dlfm/test_schema_plans.py``.

Tests are deliberately not drivers here — a function only its own unit
test calls is exactly what this is looking for.

Only ``call`` events are traced, and only for files under ``src/repro``
(the tracer returns no local trace function, so no line events fire):
the drivers run about twice as slow as untraced. Each process appends a
``file:line`` record the first time it enters a function, so a child
that ends in ``os._exit`` loses nothing.
"""

import argparse
import ast
import dataclasses
import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "repro")
sys.path.insert(0, SRC)

from repro.dlfm import schema  # noqa: E402
from repro.errors import SQLSyntaxError  # noqa: E402
from repro.host.hostdb import create_shardmap  # noqa: E402
from repro.kernel.sim import Simulator  # noqa: E402
from repro.minidb import Database  # noqa: E402
from repro.sql import ast as sql_ast  # noqa: E402
from repro.sql.parser import parse  # noqa: E402

SITECUSTOMIZE = '''\
import json, os, sys, threading

_PREFIX = os.environ["REACHED_PREFIX"]
_PARSER = os.path.join(_PREFIX, "sql", "parser.py")
_FUNCTIONS = not os.environ.get("REACHED_SQL_ONLY")
_out = open(os.path.join(os.environ["REACHED_DIR"], "%d.txt" % os.getpid()),
            "a", buffering=1)
_seen = set()
_parse = set()   # the code object of repro.sql.parser.parse, once entered
_texts = set()


def _trace(frame, event, arg):
    code = frame.f_code
    if code in _parse:
        sql = frame.f_locals.get("sql")
        if sql not in _texts:
            _texts.add(sql)
            _out.write("sql " + json.dumps(sql) + "\\n")
    elif code not in _seen:
        _seen.add(code)
        if code.co_filename.startswith(_PREFIX):
            if _FUNCTIONS:
                _out.write("%s:%d\\n"
                           % (code.co_filename, code.co_firstlineno))
            if code.co_filename == _PARSER and code.co_name == "parse":
                _parse.add(code)
                _trace(frame, event, arg)
    return None


threading.settrace(_trace)
sys.settrace(_trace)
'''

CHAOS = [["chaos", "--seed", str(seed), "--config", config, *shape]
         for seed in (0, 1) for config in ("paper", "all_on")
         for shape in (["--ops", "200"], ["--ops", "120", "--shards", "4"])]
DRIVERS = (
    [[sys.executable, "benchmarks/e2e/run.py", "--smoke"],
     [sys.executable, "-m", "repro", "bench", "--quick", "--out",
      os.devnull],
     [sys.executable, "-m", "repro", "systemtest", "--clients", "3",
      "--minutes", "1", "--seed", "5"]]
    + [[sys.executable, "-m", "repro", *args] for args in CHAOS]
    + [[sys.executable, "-m", "repro", *CHAOS[0], "--json"],
       [sys.executable, "-m", "repro", "trace", "commit-retry", "--json",
        os.devnull]]
    + [[sys.executable, "-m", "repro", "trace", scenario]
       for scenario in ("workload", "sharded", "fleet")]
    + [[sys.executable, "-m", "repro", command]
       for command in ("experiments", "paper")]
    + [[sys.executable, "examples/" + name]
       for name in sorted(os.listdir(os.path.join(ROOT, "examples")))
       if name.endswith(".py")])
#: Counted for their SQL texts alone: the layer micro-benchmarks call
#: internals directly, so the functions they enter are not traffic.
SQL_ONLY = [[sys.executable, "-m", "pytest", "-q", "--benchmark-disable",
             "-p", "no:cacheprovider", "benchmarks/perf"]]
EXPERIMENTS = [[sys.executable, "-m", "pytest", "-q", "--benchmark-disable",
                "-p", "no:cacheprovider", "benchmarks/" + name]
               for name in sorted(os.listdir(os.path.join(ROOT, "benchmarks")))
               if name.startswith("bench_e") and name.endswith(".py")]


#: Drivers run this many at a time.
WORKERS = os.cpu_count() or 1

_ITEM6 = "ROADMAP item 6 (user file ops in the chaos mix) drives it"
_ITEM7 = "ROADMAP item 7 (utilities under chaos) drives it"
_PROBE = "test probe; inlining it into its test sites moves code"
_REPR = "debugging output"
#: Every function of ``src/repro`` that no default driver enters, keyed
#: ``"src/repro/<file>:<Qual.name>"``, with the reason it stays. A
#: function leaves the table when a driver reaches it or it is deleted.
KEPT = {
    # Open ROADMAP items.
    "src/repro/dlff/filter.py:FilteredFileSystem.stat": _ITEM6,
    "src/repro/dlff/filter.py:FilteredFileSystem.exists": _ITEM6,
    "src/repro/dlff/filter.py:FilteredFileSystem.create": _ITEM6,
    "src/repro/dlff/filter.py:FilteredFileSystem.write": _ITEM6,
    "src/repro/dlff/filter.py:FilteredFileSystem.rename": _ITEM6,
    "src/repro/fs/filesystem.py:FileSystem.write": _ITEM6,
    "src/repro/fs/filesystem.py:FileSystem.rename": _ITEM6,
    "src/repro/shard/system.py:ShardedSystem._fleet_upcall": _ITEM6,
    "src/repro/host/load.py:LoadUtility.resume": _ITEM7,
    "src/repro/shard/rebalance.py:_roll_back_orphan": _ITEM7,
    "src/repro/minidb/db.py:_BulkIndexPending.drop": _ITEM7,
    "src/repro/minidb/txn.py:TransactionTable.readmit":
        "ROADMAP item 4 (the 2PC crash-point sweep) reaches the re-admit "
        "path",
    "src/repro/minidb/db.py:Database.explain":
        "ROADMAP item 5 (attributed time) prints plan summaries with it",
    "src/repro/minidb/db.py:Database.get_plan":
        "ROADMAP item 5; the index census of this tool binds with it",
    "src/repro/minidb/storage.py:BufferPool.flush_all":
        "benchmarks/e2e/trace.py hooks it; ROADMAP item 1 removes the hook",
    # Shipped paths that no driver's data reaches.
    "src/repro/dlfm/daemons/gc.py:GarbageCollector._drop_copy":
        "backup retention: no driver keeps backups past their expiry",
    "src/repro/archive/server.py:ArchiveServer.delete_version":
        "backup retention: the garbage collector's archive delete",
    "src/repro/sql/executor.py:_Reversed.__init__":
        "rows under ORDER BY ... DESC, which no driver's text sorts",
    "src/repro/sql/executor.py:_Reversed.__lt__":
        "rows under ORDER BY ... DESC, which no driver's text sorts",
    "src/repro/sql/executor.py:_Reversed.__eq__":
        "rows under ORDER BY ... DESC, which no driver's text sorts",
    "src/repro/minidb/storage.py:Disk.drop_index_image":
        "DROP TABLE of an indexed table; drivers drop unindexed ones",
    "src/repro/minidb/catalog.py:Catalog.require_index":
        "DROP INDEX, paired with CREATE INDEX by DESIGN section 2",
    "src/repro/chaos/invariants.py:Violation.to_doc":
        "chaos --json of a failing campaign; the driven cells are clean",
    # Error and general paths.
    "src/repro/sql/expr.py:_comparable":
        "a comparison whose operands are NULL or of unlike types",
    "src/repro/sql/expr.py:_missing_param":
        "a statement run with fewer parameters than markers",
    "src/repro/sql/expr.py:_incomparable":
        "the error a comparison of unlike types raises",
    "src/repro/sql/expr.py:compile_expr.run_cmp":
        "the general comparison of two computed operands",
    "src/repro/sql/expr.py:compile_expr.run_arith":
        "+ and - over two computed operands, kept by DESIGN section 2",
    "src/repro/sql/parser.py:_Parser.fail": "the parser's syntax errors",
    "src/repro/kernel/sim.py:Simulator.absolve":
        "a join that consumes a failed process's error; no driver joins "
        "one, as a gather_all child ends with its outcome",
    # A tool reads it.
    "src/repro/sql/optimizer.py:AccessPath.index_name":
        "the index census of this tool reads it",
    # Test probes.
    "src/repro/minidb/locks.py:LockManager.holders_of":
        _PROBE + "; benchmarks/perf asserts with it",
    "src/repro/minidb/locks.py:LockManager.waiting_txns":
        _PROBE + "; benchmarks/perf asserts with it",
    "src/repro/minidb/txn.py:Transaction.lock_count": _PROBE,
    "src/repro/shard/system.py:ShardedSystem.shard_of": _PROBE,
    "src/repro/minidb/session.py:PreparedStatement.plan": _PROBE,
    "src/repro/kernel/sim.py:Event.value": _PROBE,
    "src/repro/sql/executor.py:ResultSet.__getitem__": _PROBE,
    # __repr__ methods.
    "src/repro/fs/filesystem.py:FileServer.__repr__": _REPR,
    "src/repro/kernel/channel.py:Channel.__repr__": _REPR,
    "src/repro/kernel/sim.py:_Sentinel.__repr__": _REPR,
    "src/repro/kernel/sim.py:Timeout.__repr__": _REPR,
    "src/repro/kernel/sim.py:Process.__repr__": _REPR,
    "src/repro/minidb/txn.py:Transaction.__repr__": _REPR,
    "src/repro/sql/executor.py:ResultSet.__repr__": _REPR,
    "src/repro/sql/lexer.py:Token.__repr__": _REPR,
}


def functions(path: str) -> dict:
    """``{first line: (qualified name, lines)}`` for every ``def`` of the
    file; the first line is the first decorator's, as code objects count."""
    found = {}

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno]
                            + [d.lineno for d in child.decorator_list])
                name = prefix + child.name
                found[first] = (name, child.end_lineno - child.lineno + 1)
                walk(child, name + ".")
            elif isinstance(child, ast.ClassDef):
                walk(child, prefix + child.name + ".")
            else:
                walk(child, prefix)

    with open(path) as handle:
        walk(ast.parse(handle.read()), "")
    return found


def run_drivers(drivers, sql_only, record_dir: str, site_dir: str) -> None:
    """Run every driver traced, :data:`WORKERS` at a time; ``sql_only``
    ones record their SQL texts and no functions. Exits on a failure."""
    env = dict(os.environ, REACHED_DIR=record_dir, REACHED_PREFIX=PACKAGE,
               PYTHONPATH=os.pathsep.join([site_dir, SRC]))

    def run(job):
        command, env = job
        print("  " + " ".join(command[1:]), file=sys.stderr, flush=True)
        return command, subprocess.run(
            command, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True)

    jobs = ([(command, env) for command in drivers]
            + [(command, dict(env, REACHED_SQL_ONLY="1"))
               for command in sql_only])
    with ThreadPoolExecutor(WORKERS) as pool:
        for command, done in pool.map(run, jobs):
            if done.returncode:
                pool.shutdown(cancel_futures=True)
                sys.exit(f"driver failed ({done.returncode}): "
                         f"{' '.join(command)}\n{done.stderr[-2000:]}")


def entered(record_dir: str) -> tuple[set, set]:
    """Every ``(file, first line)`` some traced process entered, and
    every SQL text some process parsed."""
    reached, texts = set(), set()
    for name in os.listdir(record_dir):
        with open(os.path.join(record_dir, name)) as handle:
            for line in handle:
                if line.startswith("sql "):
                    texts.add(json.loads(line[4:]))
                    continue
                path, _, lineno = line.rstrip("\n").rpartition(":")
                reached.add((path, int(lineno)))
    return reached, texts


# -- the SQL census ------------------------------------------------------------

def _nodes(value):
    """Every AST node in ``value`` (a node, a tuple of them, or a leaf)."""
    if dataclasses.is_dataclass(value):
        yield value
        for field in dataclasses.fields(value):
            yield from _nodes(getattr(value, field.name))
    elif isinstance(value, tuple):
        for item in value:
            yield from _nodes(item)


def constructs(stmt) -> set:
    """The statement's node types (``Comparison`` and ``Arithmetic`` with
    their operator) and every optional field it sets, as ``Class.field``."""
    found = set()
    for node in _nodes(stmt):
        name = type(node).__name__
        found.add(f"{name} {node.op}" if hasattr(node, "op") else name)
        for field in dataclasses.fields(node):
            if field.default is not dataclasses.MISSING \
                    and getattr(node, field.name) != field.default:
                found.add(f"{name}.{field.name}")
    return found


def sql_census(texts: set) -> list:
    """Print each construct the parsed texts use — how many texts, and the
    shortest as its example — and every text the parser rejects, which
    is returned."""
    uses: dict = {}
    rejected = []
    for sql in sorted(texts):
        try:
            stmt = parse(sql)
        except SQLSyntaxError as error:
            rejected.append((sql, error))
            continue
        for name in constructs(stmt):
            uses.setdefault(name, []).append(sql)
    print(f"SQL census: {len(texts)} distinct texts, "
          f"{len(rejected)} the parser rejects")
    width = max(map(len, uses), default=0)
    for name, hits in sorted(uses.items()):
        example = " ".join(min(hits, key=len).split())
        if len(example) > 90:
            example = example[:87] + "..."
        print(f"  {name:<{width}}  {len(hits):4d}  {example}")
    for sql, error in rejected:
        print(f"  rejected: {error}")
    return rejected


# -- the index census ----------------------------------------------------------

def plan_context() -> Database:
    """A fresh database with the DLFM schema under its pinned statistics,
    the host's shard-map catalog and the Reconcile utility's temp table:
    where the shipped system binds every DLFM text."""
    sim = Simulator()
    db = Database(sim, "census")
    schema.create_schema(db, sim)
    schema.pin_statistics(db)
    create_shardmap(db)
    db.ddl(parse(schema.RECONCILE_DDL))
    return db


def dlfm_texts(texts) -> list:
    """The DML texts that touch a ``dfm_*`` or ``dlk_*`` table."""
    found = []
    for sql in sorted(texts):
        try:
            stmt = parse(sql)
        except SQLSyntaxError:
            continue
        if not isinstance(stmt, (sql_ast.Select, sql_ast.Insert,
                                 sql_ast.Update, sql_ast.Delete)):
            continue
        if any(node.table.startswith(("dfm_", "dlk_"))
               for node in _nodes(stmt) if hasattr(node, "table")):
            found.append(sql)
    return found


def access_path(db: Database, sql: str):
    """The index ``sql``'s plan reads, or ``table_scan`` — one per SELECT
    of an EXCEPT, joined by `` EXCEPT `` — and None for an INSERT."""
    plan = db.get_plan(sql)
    if plan.kind == "insert":
        return None
    paths = []
    while plan is not None:
        paths.append(plan.access.index_name or plan.access.kind)
        plan = getattr(plan, "except_plan", None)
    return " EXCEPT ".join(paths)


def index_census(texts) -> tuple:
    """Bind every DLFM text in :func:`plan_context` and print, for each
    of its indexes, how many texts read it. Returns the texts' access
    paths and the indexes no text reads."""
    db = plan_context()
    paths = {sql: access_path(db, sql) for sql in dlfm_texts(texts)}
    reads = {index: 0 for index in sorted(db.catalog.indexes)}
    for path in paths.values():
        for index in set((path or "").split(" EXCEPT ")) & set(reads):
            reads[index] += 1
    print(f"index census: {len(paths)} DLFM texts bound under pinned "
          f"statistics")
    width = max(map(len, reads), default=0)
    for index, count in reads.items():
        print(f"  {index:<{width}}  {count:4d}")
    return paths, [index for index, count in reads.items() if not count]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--with-experiments", action="store_true",
                        help="also run benchmarks/bench_e*.py (~8 min); "
                             "the KEPT table is then only reported")
    parser.add_argument("--plans", metavar="PATH",
                        help="write each DLFM text's access path to PATH "
                             "as JSON (tests/golden/dlfm_plans.json)")
    args = parser.parse_args()
    drivers = DRIVERS + (EXPERIMENTS if args.with_experiments else [])
    with tempfile.TemporaryDirectory() as work:
        site_dir = os.path.join(work, "site")
        record_dir = os.path.join(work, "records")
        os.mkdir(site_dir)
        os.mkdir(record_dir)
        with open(os.path.join(site_dir, "sitecustomize.py"), "w") as handle:
            handle.write(SITECUSTOMIZE)
        run_drivers(drivers, SQL_ONLY, record_dir, site_dir)
        reached, texts = entered(record_dir)

    total = total_lines = missed = missed_lines = 0
    unreached = set()
    for folder, _, names in sorted(os.walk(PACKAGE)):
        for name in sorted(n for n in names if n.endswith(".py")):
            path = os.path.join(folder, name)
            defs = functions(path)
            lost = [(line, *defs[line]) for line in sorted(defs)
                    if (path, line) not in reached]
            total += len(defs)
            total_lines += sum(lines for _, lines in defs.values())
            if not lost:
                continue
            rel = os.path.relpath(path, ROOT)
            unreached.update(f"{rel}:{func}" for _, func, _ in lost)
            lines = sum(span for _, _, span in lost)
            missed += len(lost)
            missed_lines += lines
            print(f"{rel}: {len(lost)} of {len(defs)} functions unreached, "
                  f"{lines} function lines")
            for line, func, span in lost:
                print(f"    {line:5d}  {func}  ({span} lines)")
    print(f"unreached: {missed} of {total} functions, {missed_lines} of "
          f"{total_lines} function lines, under {len(drivers)} drivers")

    rejected = sql_census(texts)
    paths, unread = index_census(texts)
    if args.plans:
        with open(args.plans, "w") as handle:
            json.dump(paths, handle, indent=1, sort_keys=True)
            handle.write("\n")

    unkept = sorted(unreached - set(KEPT))
    stale = sorted(set(KEPT) - unreached)
    if args.with_experiments:
        # The experiments reach more; the table holds the default drivers.
        print(f"KEPT functions the experiments reach: "
              f"{', '.join(stale) or 'none'}")
        stale = []
    for key in unkept:
        print(f"unreached and not in KEPT: {key}", file=sys.stderr)
    for key in stale:
        print(f"in KEPT but reached (drop its entry): {key}",
              file=sys.stderr)
    if rejected:
        print(f"{len(rejected)} recorded SQL texts do not parse",
              file=sys.stderr)
    if unread:
        print(f"{len(unread)} indexes no DLFM text reads: "
              f"{', '.join(unread)}", file=sys.stderr)
    return 1 if unkept or stale or rejected or unread else 0


if __name__ == "__main__":
    sys.exit(main())
