"""Randomised Contraction — the paper's algorithm (Section V).

Per round, every vertex picks the member of its closed neighbourhood that
minimises a fresh random bijection ``h_i`` of the vertex IDs; the graph is
contracted to the chosen representatives; duplicate and loop edges are
dropped; the loop repeats until the edge table is empty.  The composition
of the per-round representative maps labels every vertex with its
component.

Three interchangeable implementations, selected by the randomisation
method's strategy and the ``variant`` argument:

``variant="fast"`` (Figure 4 / Appendix A; pointwise *affine* methods)
    The headline configuration.  Per-round representative tables ``R_i``
    are kept and composed back-to-front after the contraction loop, with
    the relabelling of skipped rounds collapsed into one accumulated affine
    pair ``(A, B)`` — possible precisely because finite-field rounds are
    affine.  Space is linear in expectation.

``variant="deterministic-space"`` (Figure 3; any pointwise method)
    Composes the representative map into a full-size table ``L`` each
    round: ``L := coalesce(R∘L, h_i∘L)``.  Works for non-affine bijections
    (Blowfish), and bounds space deterministically.

table-strategy methods (random reals)
    The paper's "random reals" method: a per-vertex random table is
    materialised each round and joined against; representatives are actual
    vertex IDs (argmin), so composition is the plain ``coalesce(R∘L, L)``.
    This achieves full randomisation (a uniform random permutation — we
    realise it exactly, as integer ranks of random reals) at the cost of
    shipping the random table across the cluster, which the engine's
    motion accounting makes visible.

Each variant is a plain sequence of ``db.execute`` calls, issued in the
order Figures 3 and 4 write them, and the engine runs them one at a time:
a round's statements, and every space and write count, are a function of
the seed alone.
"""

from __future__ import annotations

import random
from typing import Optional

import numpy as np

from ..ff.permutation import (
    POINTWISE,
    TABLE,
    FiniteFieldMethod,
    PointwiseRound,
    RandomisationMethod,
    get_method,
)
from ..sqlengine import Database
from ..sqlengine.errors import ExecutionError
from .base import SQLConnectedComponents
from .udfs import register_udfs


class RandomisedContraction(SQLConnectedComponents):
    """The paper's Randomised Contraction algorithm.

    Parameters
    ----------
    method:
        A :class:`~repro.ff.permutation.RandomisationMethod` or its registry
        name: ``"finite-fields"`` (default, the paper's recommendation),
        ``"prime-field"``, ``"encryption"``, ``"random-reals"``, or
        ``"identity"`` (no randomisation; exhibits the Figure 2 worst case).
    variant:
        ``"fast"`` (Figure 4, default) or ``"deterministic-space"``
        (Figure 3).  ``"fast"`` requires an affine pointwise method and
        falls back with a clear error otherwise.
    max_rounds:
        Safety bound on contraction rounds; ``None`` derives a generous
        O(log |V|) bound automatically (the identity method is exempted,
        since its worst case is deliberately linear).
    """

    name = "randomised-contraction"

    def __init__(
        self,
        method: RandomisationMethod | str = "finite-fields",
        variant: str = "fast",
        table_prefix: str = "cc",
        max_rounds: Optional[int] = None,
    ):
        super().__init__(table_prefix)
        if isinstance(method, str):
            method = get_method(method)
        if variant not in ("fast", "deterministic-space"):
            raise ValueError(f"unknown variant {variant!r}")
        if variant == "fast":
            if method.strategy != POINTWISE:
                raise ValueError(
                    f"the fast (Figure 4) variant needs a pointwise method; "
                    f"{method.name!r} requires per-vertex tables — use "
                    f"variant='deterministic-space'"
                )
            if not hasattr(method, "affine_sql"):
                raise ValueError(
                    f"the fast (Figure 4) variant composes affine relabellings; "
                    f"method {method.name!r} is not affine — use "
                    f"variant='deterministic-space'"
                )
        self.method = method
        self.variant = variant
        self.max_rounds = max_rounds
        self.name = f"randomised-contraction[{method.name},{variant}]" \
            if (method.name, variant) != ("finite-fields", "fast") \
            else "randomised-contraction"

    # ------------------------------------------------------------------

    def _execute(self, db, edges_table, result_table, rng):
        register_udfs(db)
        n_hint = max(db.table(edges_table).n_rows, 2)
        if self.method.strategy == TABLE:
            rounds = self._run_table_strategy(db, edges_table, result_table, rng,
                                              n_hint)
        elif self.variant == "fast":
            rounds = self._run_fast(db, edges_table, result_table, rng, n_hint)
        else:
            rounds = self._run_deterministic_space(db, edges_table, result_table,
                                                   rng, n_hint)
        return rounds, {"method": self.method.name, "variant": self.variant}

    def _check_rounds(self, rounds: int, n_hint: int) -> None:
        if self.method.name == "identity":
            return  # deliberately unbounded: the worst-case demonstration
        self._round_guard(rounds, n_hint, hard_limit=self.max_rounds)

    # ------------------------------------------------------------------
    # Figure 4 / Appendix A: the fast variant
    # ------------------------------------------------------------------

    def _run_fast(self, db: Database, edges_table: str, result_table: str,
                  rng: random.Random, n_hint: int) -> int:
        p = self.prefix
        self._setup_doubled_edges(db, edges_table, f"{p}graph")
        round_no = 0
        stack: list[PointwiseRound] = []
        while True:
            round_no += 1
            self._check_rounds(round_no, n_hint)
            h = self.method.new_round(rng)
            stack.append(h)
            reps = f"{p}reps{round_no}"
            db.execute(
                f"""
                create table {reps} as
                select v1 v,
                       least({h.sql_expr('v1')}, min({h.sql_expr('v2')})) rep
                from {p}graph
                group by v1
                distributed by (v)
                """,
                label=f"{self.name}:reps",
            )
            db.execute(
                f"""
                create table {p}graph2 as
                select r1.rep as v1, v2
                from {p}graph, {reps} as r1
                where {p}graph.v1 = r1.v
                distributed by (v2)
                """,
                label=f"{self.name}:relabel-src",
            )
            db.execute(f"drop table {p}graph")
            graph_size = db.execute(
                f"""
                create table {p}graph3 as
                select distinct v1, r2.rep as v2
                from {p}graph2, {reps} as r2
                where {p}graph2.v2 = r2.v
                  and v1 != r2.rep
                distributed by (v1)
                """,
                label=f"{self.name}:contract",
            ).rowcount
            db.execute(f"drop table {p}graph2")
            db.execute(f"alter table {p}graph3 rename to {p}graph")
            if graph_size == 0:
                break
        total_rounds = round_no

        # Back-to-front composition with an accumulated affine relabelling,
        # exactly the second loop of Figure 4 / Appendix A.
        upper = f"{p}reps{total_rounds}"
        composed: Optional[str] = None
        field = stack[-1].affine[2]
        acc_a, acc_b = field.one, field.zero
        while True:
            a_i, b_i, field = stack.pop().affine
            acc_a, acc_b = (
                field.mul(acc_a, a_i),
                field.add(field.mul(acc_a, b_i), acc_b),
            )
            round_no -= 1
            if round_no == 0:
                break
            acc_sql = self.method.affine_sql(acc_a, acc_b, "r1.rep")
            composed = f"{p}c{round_no}"
            db.execute(
                f"""
                create table {composed} as
                select r1.v as v, coalesce(r2.rep, {acc_sql}) as rep
                from {p}reps{round_no} as r1
                left outer join {upper} as r2
                  on (r1.rep = r2.v)
                distributed by (v)
                """,
                label=f"{self.name}:compose",
            )
            db.execute(f"drop table {p}reps{round_no}, {upper}")
            upper = composed
        final = composed if composed is not None else f"{p}reps1"
        db.execute(f"alter table {final} rename to {result_table}")
        db.execute(f"drop table {p}graph")
        return total_rounds

    # ------------------------------------------------------------------
    # Figure 3: deterministic space
    # ------------------------------------------------------------------

    def _run_deterministic_space(self, db: Database, edges_table: str,
                                 result_table: str, rng: random.Random,
                                 n_hint: int) -> int:
        p = self.prefix
        self._setup_doubled_edges(db, edges_table, f"{p}e")
        rounds = 0
        while True:
            rounds += 1
            self._check_rounds(rounds, n_hint)
            h = self.method.new_round(rng)
            reps = f"{p}r{rounds}"
            db.execute(f"""
                    create table {reps} as
                    select v1 v,
                           least({h.sql_expr('v1')}, min({h.sql_expr('v2')})) rep
                    from {p}e
                    group by v1
                    distributed by (v)
                    """, label=f"{self.name}:reps")
            if self._contract_and_compose(db, reps, rounds == 1,
                                          h.sql_expr("l.rep")) == 0:
                break
        db.execute(f"alter table {p}l rename to {result_table}")
        db.execute(f"drop table {p}e")
        return rounds

    def _contract_and_compose(self, db: Database, reps: str,
                              first_round: bool, rep_sql: str) -> int:
        """The round tail both looping variants share, in Figure 3's order:
        contract the doubled edge table over the round's representatives,
        then compose them into the label table, ``L := coalesce(R∘L,
        h_i∘L)`` (round one adopts the representatives as ``L``).  Returns
        the contracted edge count that decides loop exit."""
        p = self.prefix
        row_count = db.execute(f"""
                create table {p}t as
                select distinct rv.rep as v1, rw.rep as v2
                from {p}e, {reps} as rv, {reps} as rw
                where {p}e.v1 = rv.v and {p}e.v2 = rw.v
                  and rv.rep != rw.rep
                distributed by (v1)
                """, label=f"{self.name}:contract").rowcount
        db.execute(f"drop table {p}e")
        db.execute(f"alter table {p}t rename to {p}e")
        if first_round:
            db.execute(f"alter table {reps} rename to {p}l")
            return row_count
        db.execute(f"""
            create table {p}c as
            select l.v as v,
                   coalesce(r.rep, {rep_sql}) as rep
            from {p}l as l
            left outer join {reps} as r on (l.rep = r.v)
            distributed by (v)
            """, label=f"{self.name}:compose")
        db.execute(f"drop table {p}l, {reps}")
        db.execute(f"alter table {p}c rename to {p}l")
        return row_count

    # ------------------------------------------------------------------
    # Table-strategy methods (random reals): argmin representatives
    # ------------------------------------------------------------------

    def _run_table_strategy(self, db: Database, edges_table: str,
                            result_table: str, rng: random.Random,
                            n_hint: int) -> int:
        p = self.prefix
        self._setup_doubled_edges(db, edges_table, f"{p}e")
        np_rng = np.random.default_rng(rng.getrandbits(63))
        rounds = 0
        while True:
            rounds += 1
            self._check_rounds(rounds, n_hint)
            vertices = np.unique(db.table(f"{p}e").column("v1").values)
            if vertices.shape[0] == 0:
                # Degenerate input (empty edge table): nothing to do.  No
                # later round gets here: the loop stops once a contraction
                # leaves no edge.
                db.execute(f"create table {result_table} (v int, r int)")
                db.drop_table(f"{p}e")
                return rounds
            # A uniformly random permutation, realised as the ranks of
            # i.i.d. random reals (this is the "random reals method" with
            # exact tie-free ordering).
            ranks = np.empty(vertices.shape[0], dtype=np.int64)
            ranks[np_rng.permutation(vertices.shape[0])] = np.arange(
                vertices.shape[0], dtype=np.int64
            )
            db.load_table(f"{p}rand", {"v": vertices, "h": ranks},
                          distributed_by="v")
            # The random table must reach every segment (the paper's noted
            # disadvantage of this method).
            db.stats.record_broadcast(
                db.table(f"{p}rand").byte_size(), db.cluster.n_segments
            )
            reps = f"{p}r{rounds}"
            # The reps-building pipeline: neigh-min -> closed-min -> argmin.
            db.execute(f"""
                    create table {p}nmin as
                    select e.v1 as v, min(h2.h) as hmin
                    from {p}e as e, {p}rand as h2
                    where e.v2 = h2.v
                    group by e.v1
                    distributed by (v)
                    """, label=f"{self.name}:neigh-min")
            db.execute(f"""
                    create table {p}cmin as
                    select m.v as v, least(m.hmin, hv.h) as hmin
                    from {p}nmin as m, {p}rand as hv
                    where m.v = hv.v
                    distributed by (v)
                    """, label=f"{self.name}:closed-min")
            db.execute(f"""
                    create table {reps} as
                    select mc.v as v, h3.v as rep
                    from {p}cmin as mc, {p}rand as h3
                    where mc.hmin = h3.h
                    distributed by (v)
                    """, label=f"{self.name}:argmin")
            row_count = self._contract_and_compose(db, reps, rounds == 1,
                                                   "l.rep")
            db.execute(f"drop table {p}rand, {p}nmin, {p}cmin")
            if row_count == 0:
                break
        db.execute(f"alter table {p}l rename to {result_table}")
        db.drop_table(f"{p}e")
        return rounds
