"""In-process layer tracing by wrapping catpurify's public functions.

The benchmark times each layer from outside the library: ``Tracer.install``
replaces every reference to a traced function or method, in every loaded
``catpurify`` module, with a wrapper that records a span (name, parent,
start, end) in memory.  ``uninstall`` puts the originals back.  Nothing is
patched unless a traced run asks for it, so untraced runs execute the
library unmodified.

The program is single-threaded, so spans nest strictly: a span's direct
children are disjoint intervals inside it, and its self time is its
duration minus the sum of its children's durations.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# (module, function) pairs traced as ``<module>.<function>``.
FUNCTIONS = [
    ("cli", "main"),
    ("strategy", "yield_curve"),
    ("strategy", "recurrence_round"),
    ("ensemble", "block_yield"),
    ("ensemble", "block_step"),
    ("ensemble", "iid_block"),
    ("ensemble", "apply_mxor"),
    ("ensemble", "condition_amps_zero"),
    ("ensemble", "marginalize_slot"),
    ("ensemble", "shannon_entropy"),
    ("ensemble", "werner_single"),
    ("hashing", "simulate_hashing"),
    ("hashing", "two_party_hashing_yield"),
    ("hashing", "werner_hashing_yield"),
    ("gf2", "pack_indices"),
    ("gf2", "pack_bits"),
    ("gf2", "dot_bit"),
    ("gf2", "row_weight"),
    ("gf2", "decode_map"),
]

# (module, class, method, span name).
METHODS = [
    ("gf2", "GF2System", "solve", "gf2.solve"),
    ("gf2", "GF2System", "add_row", "gf2.add_row"),
    ("gf2", "AffineCoset", "contains", "gf2.AffineCoset.contains"),
]


def _count_solve(counts, args, result):
    counts["gf2.solve.rows"] += args[0].n_rows


def _count_decode(counts, args, result):
    counts["gf2.decode_map.results"] += 1
    counts["gf2.decode_map.intractable"] += result.status == "intractable"
    if result.coset_dim >= 0:
        counts["gf2.coset_dim.n"] += 1
        counts["gf2.coset_dim.sum"] += result.coset_dim


def _count_iid_block(counts, args, result):
    counts["ensemble.iid_block.entries"] += result.probs.size


def _count_simulation(counts, args, result):
    run = result[2]
    counts["hashing.trials"] += 1
    counts["hashing.rounds"] += run.rounds_a + run.rounds_b
    counts["hashing.certified"] += "certified" in run.decode_mode


# Counters read off a traced call's arguments and result, at the same
# boundary as its span.
COUNTERS = {
    "gf2.solve": _count_solve,
    "gf2.decode_map": _count_decode,
    "ensemble.iid_block": _count_iid_block,
    "hashing.simulate_hashing": _count_simulation,
}


class Tracer:
    """Span recorder plus counters for one traced process."""

    def __init__(self):
        # One entry per span: [name, parent index or -1, start, end].
        self.spans: list[list] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        counter = COUNTERS.get(name)
        counts = self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, stack[-1] if stack else -1, 0.0, 0.0]
            spans.append(span)
            stack.append(idx)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if counter is not None:
                counter(counts, args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function wherever a catpurify module binds it
        (``from .gf2 import pack_bits`` makes a second binding), and every
        traced method on its class."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [
            mod for key, mod in sys.modules.items()
            if key == "catpurify" or key.startswith("catpurify.")
        ]
        for mod_name, fn_name in FUNCTIONS:
            original = getattr(sys.modules[f"catpurify.{mod_name}"], fn_name)
            wrapper = self.wrap(f"{mod_name}.{fn_name}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
        for mod_name, cls_name, meth, span_name in METHODS:
            cls = getattr(sys.modules[f"catpurify.{mod_name}"], cls_name)
            original = cls.__dict__[meth]
            self._restore.append((cls, meth, original))
            setattr(cls, meth, self.wrap(span_name, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def drain(self, totals: defaultdict) -> None:
        """Fold the recorded spans into ``totals`` (``<name>.calls``,
        ``<name>.s`` inclusive, ``<name>.self_s``) and forget them."""
        if self._stack:
            raise RuntimeError("cannot drain while a span is open")
        cover = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                cover[parent] += end - start
        for (name, _, start, end), child in zip(self.spans, cover):
            totals[f"{name}.calls"] += 1
            totals[f"{name}.s"] += end - start
            totals[f"{name}.self_s"] += end - start - child
        self.spans.clear()
