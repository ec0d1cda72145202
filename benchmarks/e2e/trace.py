"""Per-layer attribution from outside the program.

``Tracer.install()`` assigns timing wrappers over the public entry
points of each layer (the ``HOOKS`` table) for this process only; the
program itself is not edited. Two kinds of wrapper:

* a **plain call** (``BTree.insert``, ``encode_key``, ``Simulator.run``
  ...) takes no simulated time, so it is folded into per-name totals:
  calls, host self time, host inclusive time;
* a **generator entry point** (``Session.execute``, ``rpc.call``,
  ``HostSession.commit`` ...) gets a stepping proxy that times every
  ``send``/``throw``, so host time is charged per resumption and nests
  under ``yield from``. Each one is a *span*: name, simulator process,
  parent, and start/end on both clocks.

Host self time is kept with one stack shared by both kinds: a frame's
self time is its duration minus the durations of the frames opened
under it. The simulator runs one coroutine at a time on one thread, so
the stack always is the ``yield from`` chain of the running process.

A span's parent is the enclosing span of the same process; across an
RPC it is the ``rpc.call`` span, found by the identity of the payload
when ``ChildAgent.dispatch`` starts on it (the dispatch then counts as
a child of both the call and the agent's serve loop). Simulated self
time is the span's simulated duration minus that of its children. It is *not*
additive over processes: a coordinator's span keeps waiting while its
participants' spans run.

A hook whose target no longer exists is recorded as missing (its
layer's numbers are then reported as null) instead of raising.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from array import array

_clock = time.perf_counter_ns

#: layer -> entry points, as "module:Owner.attr" (a trailing ``*``
#: takes every public function with that prefix).
HOOKS = {
    "kernel.sim": [
        "repro.kernel.sim:Simulator.run",
        "repro.kernel.sim:Simulator.after",
        "repro.kernel.sim:Simulator.spawn",
    ],
    "kernel.rpc": [
        "repro.kernel.rpc:call",
        "repro.kernel.rpc:cast",
        "repro.kernel.rpc:serve_loop",
        "repro.kernel.channel:Channel.send",
        "repro.kernel.channel:Channel.recv",
    ],
    "sql.parser": ["repro.sql.parser:parse"],
    "sql.optimizer": ["repro.minidb.db:Database.bind_plan"],
    "sql.executor": ["repro.sql.executor:Executor.run_*"],
    "minidb.session": [
        "repro.minidb.session:Session.execute",
        "repro.minidb.session:Session.commit",
        "repro.minidb.session:Session.rollback",
        "repro.minidb.session:Session.prepare",
    ],
    "minidb.locks": [
        "repro.minidb.locks:LockManager.acquire",
        "repro.minidb.locks:LockManager.release",
        "repro.minidb.locks:LockManager.release_all",
    ],
    "minidb.btree": [
        "repro.minidb.btree:BTree.insert",
        "repro.minidb.btree:BTree.delete",
        "repro.minidb.btree:BTree.search_eq",
        "repro.minidb.btree:BTree.scan_range",
        "repro.minidb.btree:BTree.bulk_load",
        "repro.minidb.btree:encode_key",
    ],
    "minidb.storage": [
        "repro.minidb.storage:BufferPool.fetch",
        "repro.minidb.storage:BufferPool.flush_all",
    ],
    "minidb.wal": [
        "repro.minidb.wal:LogManager.append",
        "repro.minidb.wal:LogManager.force",
    ],
    "minidb.recovery": ["repro.minidb.recovery:recover"],
    "dlfm.agent": [
        "repro.dlfm.agent:ChildAgent.dispatch",
        "repro.dlfm.manager:DLFM.op_*",
    ],
    "dlfm.daemons": [
        "repro.dlfm.daemons.copyd:CopyDaemon.run",
        "repro.dlfm.daemons.copyd:CopyDaemon.sweep",
        "repro.dlfm.daemons.copyd:CopyDaemon.archive_priority",
        "repro.dlfm.daemons.gc:GarbageCollector.run",
        "repro.dlfm.daemons.gc:GarbageCollector.collect",
        "repro.dlfm.daemons.version_merge:VersionMergeDaemon.run",
        "repro.dlfm.daemons.version_merge:VersionMergeDaemon.run_pass",
        "repro.dlfm.daemons.delete_group:DeleteGroupDaemon.run",
        "repro.dlfm.daemons.delete_group:DeleteGroupDaemon.process_txn",
        "repro.dlfm.daemons.chown:ChownDaemon.run",
        "repro.dlfm.daemons.chown:ChownDaemon.request",
        "repro.dlfm.daemons.upcall:UpcallDaemon.run",
        "repro.dlfm.daemons.upcall:UpcallDaemon.query",
        "repro.dlfm.daemons.retrieved:RetrieveDaemon.run",
        "repro.dlfm.daemons.retrieved:RetrieveDaemon.restore",
    ],
    "host.session": [
        "repro.host.session:HostSession.execute",
        "repro.host.session:HostSession.commit",
        "repro.host.session:HostSession.rollback",
        "repro.host.session:HostSession.fetch_with_tokens",
        "repro.host.hostdb:HostDB.restart",
    ],
    "host.load": ["repro.host.load:LoadUtility.run"],
    "host.utilities": [
        "repro.host.backup:backup_database",
        "repro.host.reconcile:reconcile",
    ],
    "shard.map": [
        "repro.shard.catalog:ShardMap.resolve",
        "repro.shard.catalog:ShardMap.reload",
    ],
    "archive.server": ["repro.archive.server:ArchiveServer.store"],
}

#: Names whose payload argument links a caller span to its callee span
#: in another process: name -> (role, positional index of the payload).
LINKS = {
    "kernel.rpc:call": ("out", 2),
    "dlfm.agent:ChildAgent.dispatch": ("in", 1),
}

#: The layer of the benchmark's own coroutines (see ``wrap_generator``).
BENCH_LAYER = "bench.generator"


class _Proxy:
    """Stepping proxy around one generator: times each resumption."""

    __slots__ = ("tracer", "gen", "name_id", "index", "link")

    def __init__(self, tracer, gen, name_id, link):
        self.tracer = tracer
        self.gen = gen
        self.name_id = name_id
        self.index = -1          # span index once the span is open
        self.link = link         # (role, payload id) or None

    def __iter__(self):
        return self

    def __next__(self):
        return self._step(self.gen.send, None)

    def send(self, value):
        return self._step(self.gen.send, value)

    def throw(self, *args):
        return self._step(self.gen.throw, *args)

    def close(self):
        try:
            return self.gen.close()
        finally:
            if self.index >= 0:
                self.tracer._close(self.index, self.link)
                self.index = -2

    def _step(self, resume, *args):
        tracer = self.tracer
        if not tracer.on:
            return resume(*args)
        index = self.index
        if index < 0:
            if index == -2:          # finished or closed: nothing to time
                return resume(*args)
            index = self.index = tracer._open(self)
        stack = tracer.stack
        frame = [0, index]
        stack.append(frame)
        started = _clock()
        try:
            result = resume(*args)
        except BaseException:
            # StopIteration or an error leaving the generator: it ended.
            self._leave(frame, started, index)
            tracer._close(index, self.link)
            self.index = -2
            raise
        self._leave(frame, started, index)
        return result

    def _leave(self, frame, started, index):
        tracer = self.tracer
        spent = _clock() - started
        stack = tracer.stack
        stack.pop()
        stack[-1][0] += spent
        own = spent - frame[0]
        row = tracer.totals[self.name_id]
        row[1] += own
        row[2] += spent
        tracer.s_host_self[index] += own
        tracer.s_host_incl[index] += spent


class Tracer:
    def __init__(self):
        self.on = False
        self.sim = None
        #: Frames are [host ns spent in frames opened under this one,
        #: span index or -1]; frame 0 stands for untraced top-level code.
        self.stack = [[0, -1]]
        self.names: list[str] = []
        self.layers: list[str] = []          # by name id
        self._ids: dict[str, int] = {}
        self.missing: list[str] = []
        self.installed: list[str] = []
        #: phase -> per-name [calls, host self ns, host inclusive ns]
        self.phases: dict[str, list] = {}
        self.totals: list = []
        self.phase = None
        self._phase_started = 0
        self.untraced_ns: dict[str, int] = {}
        self._links: dict[int, int] = {}
        self._procs: dict[str, int] = {}
        self._phase_id = 0
        # One column per span field.
        self.s_name = array("l")
        self.s_proc = array("l")
        self.s_parent = array("l")
        self.s_enclosing = array("l")
        self.s_phase = array("l")
        self.s_host_start = array("q")
        self.s_host_end = array("q")
        self.s_host_self = array("q")
        self.s_host_incl = array("q")
        self.s_sim_start = array("d")
        self.s_sim_end = array("d")
        self.s_sim_children = array("d")
        self.bench_id = self._name_id(BENCH_LAYER, "bench.coroutine")

    # ------------------------------------------------------------ names

    def _name_id(self, layer: str, name: str) -> int:
        name_id = self._ids.get(name)
        if name_id is None:
            name_id = self._ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
            for rows in self.phases.values():
                rows.append([0, 0, 0])
        return name_id

    # ---------------------------------------------------------- install

    def install(self) -> None:
        """Wrap every hook target that still exists."""
        for layer, specs in HOOKS.items():
            for spec in specs:
                self._install(layer, spec)

    def _install(self, layer: str, spec: str) -> None:
        module_name, _, path = spec.partition(":")
        try:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
        except (ImportError, AttributeError):
            self.missing.append(f"{layer}:{spec}")
            return
        if attr.endswith("*"):
            attrs = sorted(a for a, v in vars(owner).items()
                           if a.startswith(attr[:-1])
                           and inspect.isfunction(v))
        else:
            attrs = [attr] if inspect.isfunction(
                getattr(owner, attr, None)) else []
        if not attrs:
            self.missing.append(f"{layer}:{spec}")
            return
        for attr in attrs:
            original = getattr(owner, attr)
            name = f"{layer}:{'.'.join(parents + [attr])}"
            wrapper = self._wrapper(original, self._name_id(layer, name),
                                    LINKS.get(name))
            setattr(owner, attr, wrapper)
            if inspect.ismodule(owner):
                # ``from module import name`` copied the reference.
                for other in list(sys.modules.values()):
                    if (getattr(other, "__name__", "").startswith("repro")
                            and getattr(other, attr, None) is original):
                        setattr(other, attr, wrapper)
            self.installed.append(name)

    def _wrapper(self, original, name_id: int, link):
        tracer = self
        if inspect.isgeneratorfunction(original):
            if link is None:
                def wrapper(*args, **kwargs):
                    return _Proxy(tracer, original(*args, **kwargs),
                                  name_id, None)
            else:
                role, position = link

                def wrapper(*args, **kwargs):
                    return _Proxy(tracer, original(*args, **kwargs),
                                  name_id, (role, id(args[position])))
        else:
            def wrapper(*args, **kwargs):
                if not tracer.on:
                    return original(*args, **kwargs)
                stack = tracer.stack
                frame = [0, -1]
                stack.append(frame)
                started = _clock()
                try:
                    return original(*args, **kwargs)
                finally:
                    spent = _clock() - started
                    stack.pop()
                    stack[-1][0] += spent
                    row = tracer.totals[name_id]
                    row[0] += 1
                    row[1] += spent - frame[0]
                    row[2] += spent
        return functools.wraps(original)(wrapper)

    def wrap_generator(self, gen):
        """Bill a coroutine of the benchmark itself to ``bench``."""
        return _Proxy(self, gen, self.bench_id, None)

    # ------------------------------------------------------------ spans

    def _open(self, proxy: _Proxy) -> int:
        index = len(self.s_name)
        parent = enclosing = self.stack[-1][1]
        link = proxy.link
        if link is not None:
            role, key = link
            if role == "out":
                self._links[key] = index
            else:
                parent = self._links.get(key, parent)
        proc = self.sim.process_name
        proc_id = self._procs.get(proc)
        if proc_id is None:
            proc_id = self._procs[proc] = len(self._procs)
        self.s_name.append(proxy.name_id)
        self.s_proc.append(proc_id)
        self.s_parent.append(parent)
        self.s_enclosing.append(enclosing)
        self.s_phase.append(self._phase_id)
        self.s_host_start.append(_clock())
        self.s_host_end.append(0)
        self.s_host_self.append(0)
        self.s_host_incl.append(0)
        self.s_sim_start.append(self.sim.now)
        self.s_sim_end.append(-1.0)
        self.s_sim_children.append(0.0)
        self.totals[proxy.name_id][0] += 1
        return index

    def _close(self, index: int, link=None) -> None:
        if self.s_sim_end[index] >= 0.0:
            return
        if link is not None and link[0] == "out":
            self._links.pop(link[1], None)
        now = self.sim.now
        self.s_sim_end[index] = now
        self.s_host_end[index] = _clock()
        # The time is a child's time both for the span that caused it
        # (across an RPC: the caller) and for the span it ran under in
        # its own process (the agent's serve loop).
        spent = now - self.s_sim_start[index]
        for above in {self.s_parent[index], self.s_enclosing[index]}:
            if above >= 0:
                self.s_sim_children[above] += spent

    # ------------------------------------------------------------ phases

    def start(self, sim, phase: str = "window") -> None:
        self.sim = sim
        self.on = True
        self.mark(phase)

    def mark(self, phase: str) -> None:
        """Everything from here on is accounted to ``phase``."""
        now = _clock()
        if self.phase is not None:
            self.untraced_ns[self.phase] = (
                self.untraced_ns.get(self.phase, 0)
                + now - self._phase_started - self.stack[0][0])
        self.stack[0][0] = 0
        self._phase_started = now
        self.phase = phase
        if phase not in self.phases:
            self.phases[phase] = [[0, 0, 0] for _ in self.names]
        self.totals = self.phases[phase]
        self._phase_id = list(self.phases).index(phase)

    # ------------------------------------------------------------ result

    def finish(self, path: str, phase: str = "window") -> dict:
        """Stop tracing, write the spans to ``path``, print the top-10
        self-time table per clock, return the per-name summary."""
        self.mark("end")
        self.on = False
        for index in range(len(self.s_name)):
            self._close(index)       # still running: cut at the end

        rows = self.phases.get(phase, [])
        phase_id = list(self.phases).index(phase) if rows else -1
        summary = {}
        for name_id, name in enumerate(self.names):
            calls, own, incl = rows[name_id] if rows else (0, 0, 0)
            summary[name] = {"layer": self.layers[name_id], "calls": calls,
                             "host_self_s": own / 1e9,
                             "host_incl_s": incl / 1e9,
                             "sim_self_s": 0.0, "sim_incl_s": 0.0}
        for index in range(len(self.s_name)):
            if self.s_phase[index] != phase_id:
                continue
            entry = summary[self.names[self.s_name[index]]]
            spent = self.s_sim_end[index] - self.s_sim_start[index]
            entry["sim_incl_s"] += spent
            entry["sim_self_s"] += spent - self.s_sim_children[index]
        summary[self.names[self.bench_id]]["host_self_s"] += (
            self.untraced_ns.get(phase, 0) / 1e9)

        self._print_top(summary)
        self._write(path, summary)
        return {"names": summary, "missing_hooks": self.missing,
                "hooks_installed": len(self.installed),
                "spans": len(self.s_name), "trace_file": path}

    def _print_top(self, summary: dict) -> None:
        for clock, key in (("host", "host_self_s"), ("sim", "sim_self_s")):
            total = sum(e[key] for e in summary.values()) or 1.0
            print(f"top self time, {clock} clock "
                  f"(window total {total:.3f} s)", file=sys.stderr)
            top = sorted(summary.items(), key=lambda kv: -kv[1][key])[:10]
            for name, entry in top:
                print(f"  {entry[key]:10.4f} s {100 * entry[key] / total:5.1f} %"
                      f"  {entry['calls']:>9} calls  {name}",
                      file=sys.stderr)

    def _write(self, path: str, summary: dict) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        procs = sorted(self._procs, key=self._procs.get)
        doc = {
            "names": self.names, "layers": self.layers, "processes": procs,
            "phases": list(self.phases), "summary": summary,
            "missing_hooks": self.missing,
            "span_columns": {
                "name": self.s_name.tolist(),
                "process": self.s_proc.tolist(),
                "parent": self.s_parent.tolist(),
                "enclosing": self.s_enclosing.tolist(),
                "phase": self.s_phase.tolist(),
                "host_start_ns": self.s_host_start.tolist(),
                "host_end_ns": self.s_host_end.tolist(),
                "host_self_ns": self.s_host_self.tolist(),
                "host_incl_ns": self.s_host_incl.tolist(),
                "sim_start_s": self.s_sim_start.tolist(),
                "sim_end_s": self.s_sim_end.tolist(),
                "sim_children_s": self.s_sim_children.tolist(),
            },
        }
        with open(path, "w") as out:
            json.dump(doc, out)
