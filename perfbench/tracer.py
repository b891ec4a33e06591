"""In-memory span tracer that wraps the program's public functions.

The benchmark never edits the program: a :class:`Tracer` replaces module
functions and class methods with thin wrappers that record a span (name,
start, end, parent) around each call, and puts the originals back on
:meth:`Tracer.uninstall`.  Spans stay in memory until the run ends, when
:func:`summarize` folds them into per-name totals, self times and a
profile tree.

A span's *self time* is its duration minus the durations of its direct
children.  Spans nest per thread, so the server's handler threads each
keep their own parent stack.
"""

from __future__ import annotations

import importlib
import threading
import time
from contextlib import contextmanager


class Span:
    """One recorded call."""

    __slots__ = ("name", "start", "end", "parent")

    def __init__(self, name: str, start: float, parent: "Span | None") -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans from wrappers it installs around named call sites.

    ``targets`` are ``(module_path, attribute_path, span_name)`` triples:
    ``("repro.core.trainer", "DPGNNTrainer.train", "core.train")`` wraps a
    method, ``("repro.im.spread", "estimate_spread", "im.spread")`` a module
    function.  Classmethods are re-wrapped as classmethods.  Targets that
    do not resolve (renamed or removed) are skipped and listed in
    :attr:`missing`.
    """

    def __init__(self, targets) -> None:
        self.targets = list(targets)
        self.spans: list[Span] = []
        self._local = threading.local()
        self._patches: list[tuple[object, str, object, bool]] = []
        #: targets the program does not have (renamed or removed)
        self.missing: set[tuple[str, str]] = set()

    # span recording ---------------------------------------------------- #
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        """Record ``name`` around the ``with`` body (usable while installed
        or not: the benchmark's own op and setup roots use it directly)."""
        stack = self._stack()
        record = Span(name, time.perf_counter(), stack[-1] if stack else None)
        stack.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()
            self.spans.append(record)

    def _wrap(self, fn, name: str):
        tracer = self

        def traced(*args, **kwargs):
            with tracer.span(name):
                return fn(*args, **kwargs)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # installation ------------------------------------------------------ #
    def install(self) -> None:
        if self._patches:
            return
        for module_path, attr_path, name in self.targets:
            *parents, attr = attr_path.split(".")
            try:
                owner = importlib.import_module(module_path)
                for part in parents:
                    owner = getattr(owner, part)
                getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.add((module_path, attr_path))
                continue
            had_own = attr in vars(owner)
            current = vars(owner)[attr] if had_own else getattr(owner, attr)
            if isinstance(current, classmethod):
                replacement = classmethod(self._wrap(current.__func__, name))
            else:
                replacement = self._wrap(current, name)
            setattr(owner, attr, replacement)
            self._patches.append((owner, attr, current, had_own))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original, had_own = self._patches.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()


def under(span: Span, root_name: str) -> bool:
    """Whether ``span`` has an ancestor (or is itself) named ``root_name``."""
    node = span
    while node is not None:
        if node.name == root_name:
            return True
        node = node.parent
    return False


def summarize(spans, *, root_name: str | None = None) -> dict:
    """Per-name ``count`` / ``total_s`` / ``self_s`` and a path-keyed tree.

    With ``root_name`` only spans under a span of that name count (for
    example ``"op"``, so set-up work stays out of per-op figures).
    """
    chosen = [s for s in spans if root_name is None or under(s, root_name)]
    child_seconds: dict[int, float] = {}
    for span in chosen:
        if span.parent is not None:
            key = id(span.parent)
            child_seconds[key] = child_seconds.get(key, 0.0) + span.seconds
    by_name: dict[str, dict] = {}
    tree: dict[str, dict] = {}
    for span in chosen:
        self_s = span.seconds - child_seconds.get(id(span), 0.0)
        for key, table in ((span.name, by_name), (_path(span, root_name), tree)):
            entry = table.setdefault(key, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            entry["count"] += 1
            entry["total_s"] += span.seconds
            entry["self_s"] += self_s
    return {"by_name": by_name, "tree": tree}


def _path(span: Span, root_name: str | None) -> str:
    parts = []
    node = span
    while node is not None:
        parts.append(node.name)
        if node.name == root_name:
            break
        node = node.parent
    return " > ".join(reversed(parts))


def format_tree(tree: dict, per: float) -> list[str]:
    """Profile lines ``path  total_ms  self_ms  calls`` per op (``per`` ops)."""
    lines = [f"{'span':<64} {'total_ms/op':>12} {'self_ms/op':>11} {'calls/op':>9}"]
    for path in sorted(tree):
        entry = tree[path]
        depth = path.count(" > ")
        label = "  " * depth + path.rsplit(" > ", 1)[-1]
        lines.append(
            f"{label:<64} {1000 * entry['total_s'] / per:>12.2f} "
            f"{1000 * entry['self_s'] / per:>11.2f} {entry['count'] / per:>9.1f}"
        )
    return lines
