"""An interactive Cypher shell and script runner.

Interactive use::

    python -m repro                      # revised dialect
    python -m repro --dialect cypher9    # the legacy semantics

Statements end with ``;`` and may span lines.  Shell commands start
with ``:``  (``:help`` lists them).  Non-interactive use executes a
script file of ``;``-separated statements::

    python -m repro --graph data.json script.cypher
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import IO

from repro.dialect import Dialect
from repro.errors import CypherError
from repro.session import Graph

_HELP = """\
Statements end with ';' and may span multiple lines.
Shell commands:
  :help                 show this help
  :quit                 exit the shell
  :dialect [NAME]       show or switch the dialect (cypher9 | revised)
  :begin / :commit / :rollback   bracket statements in a transaction
  :checkpoint           snapshot a durable graph and truncate its WAL
  :stats                graph statistics
  :views [STATEMENT]    list maintained views (cost vs re-execution),
                        or register STATEMENT as a new view
  :cache                statement-cache and expression-compiler counters
  :schema               indexes and uniqueness constraints
  :explain STATEMENT    show the execution plan without running it
  :plan STATEMENT       show match-planner anchors (planner forced on)
  :profile STATEMENT    run a statement and show per-clause db-hits
  :lint STATEMENT       check a Cypher 9 statement for migration issues
  :dump                 plain-text listing of the graph
  :dot                  Graphviz DOT rendering of the graph
  :load PATH            load a JSON graph (replaces the current one)
  :save PATH            save the graph as JSON
  :clear                drop all data
  :connect URL          attach to a graph server (http://host:port);
                        statements, :begin/:commit/:rollback, :stats,
                        :schema and :checkpoint run remotely
  :disconnect           detach and return to the embedded graph
"""


class Shell:
    """Stateful shell over a :class:`~repro.session.Graph`."""

    def __init__(
        self,
        graph: Graph | None = None,
        *,
        out: IO[str] | None = None,
    ):
        self.graph = graph if graph is not None else Graph()
        self.out = out if out is not None else sys.stdout
        self._buffer: list[str] = []
        self._transaction = None
        #: (client, session) while attached to a server via :connect
        self._remote = None
        self.done = False

    # ------------------------------------------------------------------

    def _print(self, text: str = "") -> None:
        print(text, file=self.out)

    @property
    def prompt(self) -> str:
        """Primary or continuation prompt, depending on buffer state."""
        return "...... " if self._buffer else "cypher> "

    def feed(self, line: str) -> None:
        """Process one input line (statement fragment or command)."""
        stripped = line.strip()
        if not self._buffer and stripped.startswith(":"):
            self._command(stripped)
            return
        if not stripped and not self._buffer:
            return
        self._buffer.append(line)
        if stripped.endswith(";"):
            statement = "\n".join(self._buffer)
            self._buffer = []
            self._execute(statement)

    def feed_script(self, text: str) -> None:
        """Execute a whole script of ``;``-separated statements."""
        for line in text.splitlines():
            self.feed(line)
        if self._buffer:  # allow a final statement without ';'
            statement = "\n".join(self._buffer)
            self._buffer = []
            if statement.strip():
                self._execute(statement)

    # ------------------------------------------------------------------

    def _remote_call(self, action, success: str) -> None:
        """Run a remote client call, printing the outcome."""
        try:
            action()
        except (CypherError, ConnectionError, OSError) as error:
            self._print(f"!! {type(error).__name__}: {error}")
            return
        except Exception as error:  # ServerError and friends
            self._print(f"!! {error}")
            return
        self._print(success)

    def _execute(self, statement: str) -> None:
        started = time.perf_counter()
        try:
            if self._remote is not None:
                result = self._remote[1].run(statement)
            else:
                result = self.graph.run(statement)
        except CypherError as error:
            self._print(f"!! {type(error).__name__}: {error}")
            return
        except (ConnectionError, OSError) as error:
            self._print(f"!! connection lost: {error}")
            return
        except Exception as error:
            # remote ServerError (no local exception class)
            self._print(f"!! {error}")
            return
        elapsed = (time.perf_counter() - started) * 1000
        if len(result):
            self._print(result.pretty())
        summary = [f"{len(result)} row(s) in {elapsed:.1f} ms"]
        counters = result.counters
        if counters.contains_updates:
            parts = []
            if counters.nodes_created:
                parts.append(f"+{counters.nodes_created} nodes")
            if counters.relationships_created:
                parts.append(f"+{counters.relationships_created} rels")
            if counters.nodes_deleted:
                parts.append(f"-{counters.nodes_deleted} nodes")
            if counters.relationships_deleted:
                parts.append(f"-{counters.relationships_deleted} rels")
            if counters.properties_set:
                parts.append(f"~{counters.properties_set} props")
            if counters.labels_added or counters.labels_removed:
                parts.append(
                    f"labels +{counters.labels_added}/-{counters.labels_removed}"
                )
            summary.append(", ".join(parts))
        self._print("; ".join(summary))

    def _command(self, line: str) -> None:
        parts = line.split(None, 1)
        command = parts[0].lower()
        argument = parts[1].strip() if len(parts) > 1 else ""
        if command in (":quit", ":exit", ":q"):
            self.done = True
        elif command == ":help":
            self._print(_HELP)
        elif command == ":dialect":
            if argument:
                try:
                    self.graph = self.graph.with_dialect(argument)
                except ValueError as error:
                    self._print(f"!! {error}")
                    return
            self._print(f"dialect: {self.graph.dialect.value}")
        elif command == ":begin":
            if self._remote is not None:
                self._remote_call(self._remote[1].begin, "transaction started")
                return
            if self._transaction is not None:
                self._print("!! transaction already open")
                return
            self._transaction = self.graph.transaction()
            self._print("transaction started")
        elif command == ":commit":
            if self._remote is not None:
                self._remote_call(self._remote[1].commit, "committed")
                return
            if self._transaction is None:
                self._print("!! no open transaction")
                return
            self._transaction.commit()
            self._transaction = None
            self._print("committed")
        elif command == ":rollback":
            if self._remote is not None:
                self._remote_call(self._remote[1].rollback, "rolled back")
                return
            if self._transaction is None:
                self._print("!! no open transaction")
                return
            self._transaction.rollback()
            self._transaction = None
            self._print("rolled back")
        elif command == ":connect":
            if not argument:
                self._print("usage: :connect http://host:port")
                return
            if self._remote is not None:
                self._print("!! already connected; :disconnect first")
                return
            from repro.client import Client

            try:
                client = Client.connect(argument)
                client.health()
                session = client.session()
            except (CypherError, ConnectionError, OSError) as error:
                self._print(f"!! cannot connect to {argument}: {error}")
                return
            self._remote = (client, session)
            self._print(
                f"connected to {argument} (session {session.id}); "
                f"statements now run remotely"
            )
        elif command == ":disconnect":
            if self._remote is None:
                self._print("!! not connected")
                return
            client, session = self._remote
            self._remote = None
            try:
                session.close()
                client.close()
            except (CypherError, ConnectionError, OSError):
                pass
            self._print("disconnected; statements run on the embedded graph")
        elif command == ":checkpoint":
            if self._remote is not None:
                self._remote_call(
                    self._remote[0].checkpoint, "checkpoint written"
                )
                return
            if self.graph.persistence is None:
                self._print(
                    "!! graph is not durable; open it with --path DIR"
                )
                return
            try:
                self.graph.checkpoint()
            except CypherError as error:
                self._print(f"!! {type(error).__name__}: {error}")
                return
            self._print(
                f"checkpoint written (lsn {self.graph.store.lsn}), "
                f"WAL truncated"
            )
        elif command == ":stats":
            if self._remote is not None:
                try:
                    stats = self._remote[0].stats()
                except (CypherError, ConnectionError, OSError) as error:
                    self._print(f"!! {error}")
                    return
                for key in sorted(stats):
                    self._print(f"{key}: {stats[key]}")
                return
            self._print(self.graph.statistics().summary())
        elif command == ":views":
            if argument:
                self._register_view(argument.rstrip(";"))
                return
            self._show_views()
        elif command == ":cache":
            from repro.runtime import compiler

            info = self.graph.engine.ast_cache_info()
            compiled = compiler.STATS.snapshot()
            self._print(
                f"statements: {info['size']} of {info['capacity']} "
                f"prepared, {info['hits']} hits / {info['misses']} misses, "
                f"{info['evictions']} evicted"
            )
            self._print(
                f"closures:   {compiled['expressions_compiled']} compiled, "
                f"{compiled['constant_folded']} constants folded "
                f"(kept on their statements)"
            )
        elif command == ":schema":
            if self._remote is not None:
                try:
                    schema = self._remote[0].schema()
                except (CypherError, ConnectionError, OSError) as error:
                    self._print(f"!! {error}")
                    return
                for index in schema["indexes"]:
                    self._print(f"INDEX :{index['label']}({index['key']})")
                for item in schema["constraints"]:
                    self._print(f"UNIQUE :{item['label']}({item['key']})")
                if not schema["indexes"] and not schema["constraints"]:
                    self._print("(no indexes or constraints)")
                return
            constraints = sorted(self.graph.store.unique_constraints())
            if constraints:
                for label, key in constraints:
                    self._print(f"UNIQUE :{label}({key})")
            else:
                self._print("(no constraints)")
        elif command == ":explain":
            if not argument:
                self._print("usage: :explain STATEMENT")
                return
            try:
                self._print(self.graph.explain(argument.rstrip(";")))
            except CypherError as error:
                self._print(f"!! {type(error).__name__}: {error}")
        elif command == ":plan":
            if not argument:
                self._print("usage: :plan STATEMENT")
                return
            try:
                self._print(self.graph.plan(argument.rstrip(";")))
            except CypherError as error:
                self._print(f"!! {type(error).__name__}: {error}")
        elif command == ":profile":
            if not argument:
                self._print("usage: :profile STATEMENT")
                return
            try:
                profile = self.graph.profile(argument.rstrip(";"))
            except CypherError as error:
                self._print(f"!! {type(error).__name__}: {error}")
                return
            result = profile.result
            if len(result):
                self._print(result.pretty())
            self._print(profile.render())
        elif command == ":lint":
            if not argument:
                self._print("usage: :lint STATEMENT")
                return
            from repro.tools.migration import lint_statement

            self._print(lint_statement(argument.rstrip(";")).render())
        elif command == ":dump":
            from repro.tools.render import to_text

            self._print(to_text(self.graph.store) or "(empty graph)")
        elif command == ":dot":
            from repro.tools.render import to_dot

            self._print(to_dot(self.graph.store))
        elif command == ":load":
            from repro.io.graph_json import load_graph

            try:
                store = load_graph(argument)
            except CypherError as error:
                self._print(f"!! {error}")
                return
            self.graph = Graph(self.graph.dialect, store=store)
            self._print(f"loaded {self.graph!r}")
        elif command == ":save":
            from repro.io.graph_json import save_graph

            try:
                save_graph(self.graph.store, argument)
            except CypherError as error:
                self._print(f"!! {error}")
                return
            self._print(f"saved to {argument}")
        elif command == ":clear":
            self.graph = Graph(self.graph.dialect)
            self._print("cleared")
        else:
            self._print(f"unknown command {command!r}; try :help")

    def _register_view(self, statement: str) -> None:
        try:
            if self._remote is not None:
                view = self._remote[0].register_view(statement)
                self._print(
                    f"registered {view.id} ({view.mode}, "
                    f"lsn {view.lsn})"
                )
                return
            view = self.graph.register_view(statement)
            self._print(
                f"registered {view.id} ({view.stats.mode}, "
                f"{view.stats.rows} rows)"
            )
        except (CypherError, ConnectionError, OSError) as error:
            self._print(f"!! {error}")

    def _show_views(self) -> None:
        try:
            if self._remote is not None:
                rows = self._remote[0].views()
            else:
                rows = self.graph.views()
        except (CypherError, ConnectionError, OSError) as error:
            self._print(f"!! {error}")
            return
        if not rows:
            self._print("(no views registered)")
            return
        for stats in rows:
            maintain = stats["maintenance_s"]
            reexec = stats["reexec_s"]
            refreshes = (
                stats["delta_refreshes"] + stats["full_refreshes"]
            )
            per_refresh = maintain / refreshes if refreshes else 0.0
            speedup = (
                f"{reexec / per_refresh:.1f}x"
                if per_refresh > 0 and reexec > 0
                else "n/a"
            )
            mode = stats["mode"]
            if stats["fallback_reason"]:
                mode += f": {stats['fallback_reason']}"
            self._print(
                f"{stats['id']} [{mode}] rows={stats['rows']} "
                f"lsn={stats['covered_lsn']} lag={stats['lag']} "
                f"skipped={stats['batches_skipped']}/"
                f"{stats['batches_seen']} "
                f"maintain={per_refresh * 1e3:.3f}ms/refresh "
                f"reexec={reexec * 1e3:.3f}ms ({speedup})  "
                f"{stats['source']}"
            )


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``python -m repro``."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Cypher shell for the PVLDB'19 update-semantics "
        "reproduction",
    )
    parser.add_argument(
        "script",
        nargs="?",
        help="script of ';'-separated statements (default: interactive)",
    )
    parser.add_argument(
        "--dialect",
        default="revised",
        choices=[d.value for d in Dialect],
        help="language dialect (default: revised)",
    )
    parser.add_argument(
        "--graph", help="JSON graph to load before starting", default=None
    )
    parser.add_argument(
        "--path",
        default=None,
        help="persistence directory (write-ahead log + checkpoints); "
        "recovered on start, appended to while running",
    )
    parser.add_argument(
        "--fsync",
        default="batch",
        choices=["always", "batch", "off"],
        help="WAL fsync policy for --path (default: batch)",
    )
    parser.add_argument(
        "--extended-merge",
        action="store_true",
        help="enable the experimental Section 6 MERGE variants",
    )
    parser.add_argument(
        "--lint",
        action="store_true",
        help="lint the script for Cypher 9 -> revised migration issues "
        "instead of executing it",
    )
    args = parser.parse_args(argv)

    if args.lint:
        if not args.script:
            parser.error("--lint requires a script file")
        from repro.tools.migration import lint_script

        with open(args.script, encoding="utf-8") as handle:
            reports = lint_script(handle.read())
        for report in reports:
            print(report.render())
        return 0 if all(not r.breaks for r in reports) else 1

    store = None
    if args.graph:
        from repro.io.graph_json import load_graph

        store = load_graph(args.graph)
    graph = Graph(
        args.dialect,
        extended_merge=args.extended_merge,
        store=store,
        path=args.path,
        fsync=args.fsync,
    )
    shell = Shell(graph)
    if args.path and graph.recovery is not None:
        shell._print(f"recovered: {graph.recovery.summary()}")

    if args.script:
        try:
            with open(args.script, encoding="utf-8") as handle:
                shell.feed_script(handle.read())
        finally:
            graph.close()
        return 0

    shell._print(
        f"repro Cypher shell (dialect: {graph.dialect.value}); "
        f":help for help, :quit to exit"
    )
    try:
        while not shell.done:
            try:
                line = input(shell.prompt)
            except EOFError:
                break
            except KeyboardInterrupt:
                shell._print("")
                continue
            shell.feed(line)
    finally:
        if shell._remote is not None:
            shell._command(":disconnect")
        graph.close()
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
