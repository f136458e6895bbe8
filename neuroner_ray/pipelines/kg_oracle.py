"""DuckDB oracle SQL for the kg_* query family.

The flagship KG pipeline (gazetteer tagging → triple extraction → linking →
canonicalization → edge aggregation; SURVEY.md M11/J4/A6/J5/A7) is
deterministic and — over the synthetic transcript corpus — fully
SQL-expressible, so the driver's DuckDB gate can check it end-to-end
instead of rows-only. Each ``kg_*_sql`` function returns a standalone
DuckDB statement over the cached transcripts Parquet.

Semantics mirrored here (and the Python anchors they must match):

- **Mentions** (`stages/tagger.py::tag_tokens`): greedy longest-match of
  gazetteer token sequences over the turn's token stream. In SQL this is
  literal-substring matching at token boundaries (equivalent on any corpus
  where surfaces appear with their canonical spacing — the generator places
  them verbatim) + EXACT greedy resolution: longest match per start
  position, then a per-turn recursive linear scan that keeps a match iff it
  starts at/after the end of the last kept one (dropped matches never
  shadow later ones — the tagger's consume-and-jump semantics).
- **Triples** (`stages/triples.py::extract_triples_row`): adjacent mention
  pairs, gap ≤ 40 chars, normalized gap looked up in the predicate lexicon.
- **Nodes** (`stages/linker.py::link_match` + `canonicalize.py::union_find`
  + `graph.py::_node_rows`): the linking match rule evaluated over ALL
  same-type census pairs (at oracle scale the census is tiny, so all-pairs
  equals the MinHash-blocked candidate set — asserted by
  tests/test_kg_oracle.py), connected components via a recursive
  transitive-closure CTE, canonical = max mention_count (tie: lexicographic
  min surface). The embedding-cosine disjunct of the match rule is not
  SQL-expressible (blake2b feature hashing); the same test asserts it adds
  no pairs beyond the SQL-expressible disjuncts on this corpus.
- **Edges** (`graph.py::aggregate_edges`, kernel `edge_partials` /
  `merge_edges`): triples resolved through the canonical map, weight =
  distinct (conv_id, turn_idx) per (src, dst, pred).
"""

from __future__ import annotations

from ..sources.synth_transcripts import GAZETTEER
from ..stages.triples import MAX_GAP_CHARS, PREDICATE_LEXICON

_WORDCHAR = "[A-Za-z0-9_]"


def _gaz_values() -> str:
    rows = []
    for ent_type, surfaces in GAZETTEER.items():
        for s in surfaces:
            rows.append(f"('{s}', '{ent_type}')")
    return ", ".join(rows)


def _lex_values() -> str:
    return ", ".join(f"('{k}', '{v}')" for k, v in PREDICATE_LEXICON.items())


def _mentions_cte(transcripts_glob: str) -> str:
    """Shared CTE chain ending in ``kept`` (the resolved mention set).

    Candidate generation joins token-boundary start positions against the
    gazetteer on a 4-char prefix key (every surface is ≥4 chars), so the
    expensive full-surface comparison runs only on prefix hits.
    """
    return f"""
        tr AS (
            SELECT conv_id, turn_idx, text
            FROM read_parquet('{transcripts_glob}') WHERE text <> ''
        ),
        gaz(surface, ent_type) AS (VALUES {_gaz_values()}),
        starts AS (
            SELECT conv_id, turn_idx, text,
                   unnest(range(1, length(text) + 1)) AS s
            FROM tr
        ),
        bstarts AS (
            SELECT * FROM starts
            WHERE s = 1
               OR NOT regexp_matches(substr(text, (s - 1)::INT, 1), '{_WORDCHAR}')
        ),
        cand AS (
            SELECT b.conv_id, b.turn_idx, b.text, b.s::INT AS s,
                   g.surface, g.ent_type, length(g.surface)::INT AS slen
            FROM bstarts b
            JOIN gaz g ON substr(b.text, b.s::INT, 4) = substr(g.surface, 1, 4)
            WHERE substr(b.text, b.s::INT, length(g.surface)::INT) = g.surface
              AND (b.s + length(g.surface) > length(b.text)
                   OR NOT regexp_matches(
                          substr(b.text, (b.s + length(g.surface))::INT, 1),
                          '{_WORDCHAR}'))
        ),
        best AS (
            SELECT conv_id, turn_idx, text, s, surface, ent_type, slen
            FROM (SELECT *, row_number() OVER (
                      PARTITION BY conv_id, turn_idx, s
                      ORDER BY slen DESC) AS rk
                  FROM cand)
            WHERE rk = 1
        ),
        seq AS (
            SELECT *, row_number() OVER (
                PARTITION BY conv_id, turn_idx ORDER BY s) AS rn
            FROM best
        ),
        greedy AS (
            -- EXACT greedy scan (mirrors tag_tokens' consume-and-jump): a
            -- linear recursion per turn carrying the end of the last kept
            -- match; a candidate is kept iff it starts at/after that end.
            -- (A one-step "overlapped by an earlier match" filter is NOT
            -- equivalent when overlaps chain: dropped matches must not
            -- shadow later ones.)
            SELECT conv_id, turn_idx, text, s, surface, ent_type, slen, rn,
                   s + slen AS cur_end, TRUE AS is_kept
            FROM seq WHERE rn = 1
            UNION ALL
            SELECT n.conv_id, n.turn_idx, n.text, n.s, n.surface, n.ent_type,
                   n.slen, n.rn,
                   CASE WHEN n.s >= g.cur_end THEN n.s + n.slen
                        ELSE g.cur_end END,
                   n.s >= g.cur_end
            FROM greedy g JOIN seq n
              ON n.conv_id = g.conv_id AND n.turn_idx = g.turn_idx
             AND n.rn = g.rn + 1
        ),
        kept AS (
            SELECT conv_id, turn_idx, text, s, surface, ent_type, slen
            FROM greedy WHERE is_kept
        )"""


def _triples_tail() -> str:
    """lex/mseq/triples CTEs appended after a chain ending in ``kept`` —
    shared by the triples and edges oracles so triple semantics live in ONE
    place."""
    return f"""
        lex(gap_norm, pred) AS (VALUES {_lex_values()}),
        mseq AS (
            SELECT k.*,
                   lead(s) OVER w AS nxt_s,
                   lead(surface) OVER w AS nxt_surface,
                   lead(ent_type) OVER w AS nxt_type
            FROM kept k
            WINDOW w AS (PARTITION BY conv_id, turn_idx ORDER BY s)
        ),
        triples AS (
            SELECT m.conv_id, m.turn_idx,
                   m.surface AS subj, l.pred, m.nxt_surface AS obj,
                   m.ent_type AS subj_type, m.nxt_type AS obj_type
            FROM mseq m
            JOIN lex l ON l.gap_norm = lower(array_to_string(
                regexp_extract_all(
                    substr(m.text, m.s + m.slen, m.nxt_s - m.s - m.slen),
                    '{_WORDCHAR}+'),
                ' '))
            WHERE m.nxt_s IS NOT NULL
              AND m.nxt_s - m.s - m.slen <= {MAX_GAP_CHARS}
        )"""


def _triples_cte(transcripts_glob: str) -> str:
    return f"""{_mentions_cte(transcripts_glob)},{_triples_tail()}"""


def _nodes_cte(transcripts_glob: str) -> str:
    """Census → all-pairs link-match → transitive closure → clusters."""
    return f"""{_mentions_cte(transcripts_glob)},
        census AS (
            SELECT ent_type, surface, count(*)::BIGINT AS mention_count
            FROM kept GROUP BY ent_type, surface
        ),
        surf AS (
            SELECT ent_type, surface, mention_count,
                   array_to_string(
                       regexp_extract_all(lower(surface), '[a-z0-9_]+'), ' ')
                       AS norm
            FROM census
        ),
        feat AS (
            SELECT *, string_split(norm, ' ') AS words,
                   CASE WHEN length(norm) < 3 THEN [norm]
                        ELSE list_distinct([substr(norm, i::INT, 3)
                                            for i in range(1, length(norm)::INT - 1)])
                   END AS sh
            FROM surf
        ),
        pairs AS (
            SELECT a.ent_type || '|' || a.surface AS pa,
                   b.ent_type || '|' || b.surface AS pb
            FROM feat a JOIN feat b
              ON a.ent_type = b.ent_type AND a.surface < b.surface
            WHERE a.norm <> '' AND b.norm <> '' AND (
                a.norm = b.norm
                OR (CASE WHEN len(a.words) <= len(b.words)
                         THEN len(list_filter(a.words, w ->
                                  len(list_filter(b.words,
                                      lw -> starts_with(lw, w))) > 0))
                              = len(a.words)
                         ELSE len(list_filter(b.words, w ->
                                  len(list_filter(a.words,
                                      lw -> starts_with(lw, w))) > 0))
                              = len(b.words)
                    END)
                OR len(list_intersect(a.sh, b.sh))::DOUBLE
                   / (len(a.sh) + len(b.sh) - len(list_intersect(a.sh, b.sh)))
                   >= 0.5
            )
        ),
        sym_edges AS (
            SELECT pa AS a, pb AS b FROM pairs
            UNION SELECT pb, pa FROM pairs
        ),
        reach AS (
            SELECT node AS src, node AS dst
            FROM (SELECT ent_type || '|' || surface AS node FROM surf)
            UNION
            SELECT r.src, e.b FROM reach r JOIN sym_edges e ON r.dst = e.a
        ),
        labels AS (
            SELECT src AS node, min(dst) AS label FROM reach GROUP BY src
        ),
        clus AS (
            SELECT l.label, s.ent_type, s.surface, s.mention_count
            FROM labels l
            JOIN surf s ON l.node = s.ent_type || '|' || s.surface
        ),
        canon AS (
            SELECT label, ent_type, surface AS canonical
            FROM (SELECT *, row_number() OVER (
                      PARTITION BY label
                      ORDER BY mention_count DESC, surface ASC) AS rk
                  FROM clus)
            WHERE rk = 1
        )"""


def kg_mentions_sql(transcripts_glob: str) -> str:
    return f"""
        WITH RECURSIVE {_mentions_cte(transcripts_glob)}
        SELECT conv_id, turn_idx, ent_type,
               (s - 1)::INT AS "start", (s - 1 + slen)::INT AS "end", surface
        FROM kept
    """


def kg_triples_sql(transcripts_glob: str) -> str:
    return f"""
        WITH RECURSIVE {_triples_cte(transcripts_glob)}
        SELECT conv_id, turn_idx, subj, pred, obj, subj_type, obj_type,
               CAST(1.0 AS REAL) AS confidence
        FROM triples
    """


def kg_nodes_sql(transcripts_glob: str) -> str:
    return f"""
        WITH RECURSIVE {_nodes_cte(transcripts_glob)}
        SELECT c.ent_type || ':' || c.canonical AS entity_id,
               c.canonical, c.ent_type,
               sum(cl.mention_count)::BIGINT AS mention_count
        FROM canon c JOIN clus cl ON cl.label = c.label
        GROUP BY 1, 2, 3
    """


def _edges_cte(transcripts_glob: str) -> str:
    return f"""{_nodes_cte(transcripts_glob)},{_triples_tail()},
        smap AS (
            SELECT cl.ent_type, cl.surface,
                   c.ent_type || ':' || c.canonical AS entity_id
            FROM clus cl JOIN canon c ON cl.label = c.label
        ),
        edges AS (
            SELECT coalesce(ms.entity_id, t.subj_type || ':' || t.subj) AS src_id,
                   coalesce(mo.entity_id, t.obj_type || ':' || t.obj) AS dst_id,
                   t.pred,
                   count(DISTINCT (t.conv_id, t.turn_idx))::BIGINT AS weight
            FROM triples t
            LEFT JOIN smap ms
              ON ms.ent_type = t.subj_type AND ms.surface = t.subj
            LEFT JOIN smap mo
              ON mo.ent_type = t.obj_type AND mo.surface = t.obj
            GROUP BY 1, 2, 3
        )"""


def kg_edges_sql(transcripts_glob: str) -> str:
    return f"""
        WITH RECURSIVE {_edges_cte(transcripts_glob)}
        SELECT src_id, dst_id, pred, weight FROM edges
    """


def kg_top_entities_sql(transcripts_glob: str) -> str:
    return f"""
        WITH RECURSIVE {_edges_cte(transcripts_glob)}
        SELECT entity_id, sum(weight)::BIGINT AS degree
        FROM (
            SELECT src_id AS entity_id, weight FROM edges
            UNION ALL SELECT dst_id, weight FROM edges
        )
        GROUP BY entity_id
        ORDER BY degree DESC, entity_id ASC
        LIMIT 20
    """


def mention_heavy_hitters_sql(transcripts_glob: str) -> str:
    return f"""
        WITH RECURSIVE {_mentions_cte(transcripts_glob)}
        SELECT surface, count(*)::BIGINT AS n
        FROM kept GROUP BY surface
        ORDER BY n DESC, surface ASC
        LIMIT 10
    """


def kg_pagerank_sql(
    transcripts_glob: str,
    damping: float = 0.85,
    iters: int = 10,
    personalized: bool = False,
) -> str:
    """Weighted PageRank over the oracle edge table: the fixed-iteration
    power method unrolled as generated CTEs (standard SQL forbids
    aggregation inside a recursive CTE, so each iteration is its own CTE).
    Mirrors ``stages.graph.pagerank`` exactly: raw (non-collapsed) edges,
    uniform dangling-mass redistribution, round-to-4 at the end only.
    ``personalized`` mirrors the PPR variant: rank₀ = the lexicographic-
    min-node indicator; (1−d) and the dangling mass teleport to the seed
    (`(1−d) + d·mass` on the seed row, then `+ d·contrib` — the identical
    add order the engine uses)."""
    d = damping
    # MATERIALIZED is load-bearing: without it DuckDB may inline the edge
    # closure (a recursive CTE) into EVERY iteration CTE that references
    # g/nodes/outw, re-evaluating the whole KG pipeline dozens of times
    r0 = (
        """
        seed AS MATERIALIZED (SELECT min(id) AS id FROM nodes),
        r0 AS (SELECT id,
                      CASE WHEN id = (SELECT id FROM seed)
                           THEN 1.0 ELSE 0.0 END AS rank
               FROM nodes)"""
        if personalized
        else """
        r0 AS (SELECT id, 1.0 / (SELECT n FROM nn) AS rank FROM nodes)"""
    )
    parts = [
        """
        g AS MATERIALIZED (SELECT src_id, dst_id, weight::DOUBLE AS w FROM edges),
        nodes AS MATERIALIZED (SELECT DISTINCT id FROM
                  (SELECT src_id AS id FROM g UNION ALL SELECT dst_id FROM g)),
        nn AS MATERIALIZED (SELECT count(*)::DOUBLE AS n FROM nodes),
        outw AS MATERIALIZED (SELECT src_id AS id, sum(w) AS ow
                              FROM g GROUP BY src_id),"""
        + r0
    ]
    for k in range(1, iters + 1):
        if personalized:
            base_expr = f"""CASE WHEN n.id = (SELECT id FROM seed)
                             THEN (1 - {d}) + {d} * (SELECT mass FROM d{k})
                             ELSE 0.0 END
                        + {d} * coalesce(c.contrib, 0.0)"""
        else:
            base_expr = f"""(1 - {d}) / (SELECT n FROM nn)
                        + {d} * ((SELECT mass FROM d{k}) / (SELECT n FROM nn)
                                 + coalesce(c.contrib, 0.0))"""
        parts.append(
            f""",
        d{k} AS (SELECT coalesce(sum(r.rank), 0.0) AS mass
                 FROM r{k - 1} r LEFT JOIN outw o ON r.id = o.id
                 WHERE o.id IS NULL),
        c{k} AS (SELECT g.dst_id AS id, sum(r.rank * g.w / o.ow) AS contrib
                 FROM g JOIN r{k - 1} r ON g.src_id = r.id
                        JOIN outw o ON o.id = g.src_id
                 GROUP BY g.dst_id),
        r{k} AS MATERIALIZED (SELECT n.id,
                        {base_expr} AS rank
                 FROM nodes n LEFT JOIN c{k} c ON c.id = n.id)"""
        )
    return f"""
        WITH RECURSIVE {_edges_cte(transcripts_glob)},{"".join(parts)}
        SELECT id AS entity_id, round(rank, 4) AS rank FROM r{iters}
    """


def kg_degree_sql(transcripts_glob: str) -> str:
    """Per-entity degree census — mirrors ``stages.graph.degree_table``."""
    return f"""
        WITH RECURSIVE {_edges_cte(transcripts_glob)},
        e AS MATERIALIZED (SELECT * FROM edges)
        SELECT entity_id,
               sum(is_out)::BIGINT AS out_degree,
               sum(1 - is_out)::BIGINT AS in_degree,
               sum(weight)::BIGINT AS w_degree
        FROM (
            SELECT src_id AS entity_id, 1 AS is_out, weight FROM e
            UNION ALL SELECT dst_id, 0, weight FROM e
        )
        GROUP BY entity_id
    """


def kg_components_sql(transcripts_glob: str) -> str:
    """Undirected connected components, label = lexicographic min member —
    mirrors ``stages.graph.components`` (transitive closure + min over the
    reachable set ∪ self)."""
    return f"""
        WITH RECURSIVE {_edges_cte(transcripts_glob)},
        e AS MATERIALIZED (SELECT src_id, dst_id FROM edges),
        und AS MATERIALIZED (
            SELECT src_id AS a, dst_id AS b FROM e
            UNION SELECT dst_id, src_id FROM e
        ),
        ereach AS (
            SELECT a, b FROM und
            UNION SELECT r.a, u.b FROM ereach r JOIN und u ON r.b = u.a
        ),
        allnodes AS (
            SELECT DISTINCT src_id AS id FROM e
            UNION SELECT dst_id FROM e
        )
        SELECT n.id AS entity_id,
               least(n.id, coalesce(min(r.b), n.id)) AS component
        FROM allnodes n LEFT JOIN ereach r ON r.a = n.id
        GROUP BY n.id
    """


def kg_triangles_sql(transcripts_glob: str) -> str:
    """Global triangle count of the undirected simple entity graph —
    mirrors ``stages.graph.triangle_count`` (each triangle a<b<c counted
    once via its three ordered edges)."""
    return f"""
        WITH RECURSIVE {_edges_cte(transcripts_glob)},
        simple AS MATERIALIZED (
            SELECT DISTINCT least(src_id, dst_id) AS a,
                            greatest(src_id, dst_id) AS b
            FROM edges WHERE src_id <> dst_id
        )
        SELECT count(*)::BIGINT AS n_triangles
        FROM simple e1
        JOIN simple e2 ON e2.a = e1.b
        JOIN simple e3 ON e3.a = e1.a AND e3.b = e2.b
    """


def kg_bfs_levels_sql(transcripts_glob: str, max_levels: int = 10) -> str:
    """Undirected BFS hop levels from the lexicographically smallest
    entity — mirrors ``stages.graph.bfs_levels`` (level cap, min level per
    node). The recursive walk carries (node, level) pairs; UNION dedup
    bounds it to nodes × levels rows."""
    return f"""
        WITH RECURSIVE {_edges_cte(transcripts_glob)},
        e AS MATERIALIZED (SELECT src_id, dst_id FROM edges),
        und AS MATERIALIZED (
            SELECT src_id AS a, dst_id AS b FROM e
            UNION SELECT dst_id, src_id FROM e
        ),
        seed AS (
            SELECT least(min(src_id), min(dst_id)) AS id FROM e
        ),
        walk AS (
            SELECT id AS node, 0 AS level FROM seed WHERE id IS NOT NULL
            UNION
            SELECT u.b, w.level + 1
            FROM walk w JOIN und u ON u.a = w.node
            WHERE w.level < {max_levels}
        )
        SELECT node AS entity_id, min(level)::BIGINT AS level
        FROM walk GROUP BY node
    """


def kg_kcore_sql(
    transcripts_glob: str, k: int = 2, rounds: int = 12
) -> str:
    """Fixed-round k-core peel — mirrors ``stages.graph.kcore`` (same k,
    same round count; the peel is monotone, so early convergence on either
    side equals running all rounds). ``ud`` holds each distinct undirected
    pair in both directions, so count(*) per node = distinct neighbors."""
    parts = [
        f"""
        WITH RECURSIVE {_edges_cte(transcripts_glob)},
        e AS MATERIALIZED (SELECT src_id, dst_id FROM edges),
        und AS MATERIALIZED (
            SELECT DISTINCT least(src_id, dst_id) AS x,
                            greatest(src_id, dst_id) AS y
            FROM e WHERE src_id <> dst_id
        ),
        ud AS MATERIALIZED (
            SELECT x AS a, y AS b FROM und UNION ALL SELECT y, x FROM und
        ),
        s0 AS MATERIALIZED (SELECT DISTINCT a AS node FROM ud)"""
    ]
    for i in range(1, rounds + 1):
        parts.append(
            f""",
        s{i} AS MATERIALIZED (
            SELECT a AS node FROM ud
            WHERE a IN (SELECT node FROM s{i - 1})
              AND b IN (SELECT node FROM s{i - 1})
            GROUP BY a HAVING count(*) >= {k})"""
        )
    parts.append(
        f"""
        SELECT a AS entity_id, count(*)::BIGINT AS deg
        FROM ud
        WHERE a IN (SELECT node FROM s{rounds})
          AND b IN (SELECT node FROM s{rounds})
        GROUP BY a"""
    )
    return "".join(parts)


def kg_neighbor_jaccard_sql(transcripts_glob: str, k: int = 20) -> str:
    """Top-k neighborhood-Jaccard pairs — mirrors
    ``stages.graph.neighbor_jaccard_topk`` (pairs u < v with a common
    neighbor, J = |∩| / |∪| rounded to 4 decimals, cut by
    (jac DESC, u, v))."""
    return f"""
        WITH RECURSIVE {_edges_cte(transcripts_glob)},
        e AS MATERIALIZED (SELECT src_id, dst_id FROM edges),
        und AS MATERIALIZED (
            SELECT DISTINCT least(src_id, dst_id) AS x,
                            greatest(src_id, dst_id) AS y
            FROM e WHERE src_id <> dst_id
        ),
        ud AS MATERIALIZED (
            SELECT x AS a, y AS b FROM und UNION ALL SELECT y, x FROM und
        ),
        deg AS MATERIALIZED (SELECT a, count(*) AS d FROM ud GROUP BY a),
        common AS MATERIALIZED (
            SELECT n1.a AS u, n2.a AS v, count(*) AS c
            FROM ud n1 JOIN ud n2 ON n1.b = n2.b AND n1.a < n2.a
            GROUP BY n1.a, n2.a
        )
        SELECT c.u, c.v,
               round(c.c / (du.d + dv.d - c.c)::DOUBLE, 4) AS jac
        FROM common c
        JOIN deg du ON du.a = c.u
        JOIN deg dv ON dv.a = c.v
        ORDER BY jac DESC, c.u, c.v LIMIT {k}
    """


def kg_communities_lpa_sql(transcripts_glob: str, rounds: int = 8) -> str:
    """Synchronous label propagation — mirrors
    ``stages.graph.label_propagation`` (fixed round count, mode of
    neighbor labels, ties → smallest label, own label kept when the argmax
    row is missing)."""
    parts = [
        f"""
        WITH RECURSIVE {_edges_cte(transcripts_glob)},
        e AS MATERIALIZED (SELECT src_id, dst_id FROM edges),
        und AS MATERIALIZED (
            SELECT DISTINCT least(src_id, dst_id) AS x,
                            greatest(src_id, dst_id) AS y
            FROM e WHERE src_id <> dst_id
        ),
        ud AS MATERIALIZED (
            SELECT x AS a, y AS b FROM und UNION ALL SELECT y, x FROM und
        ),
        l0 AS MATERIALIZED (SELECT DISTINCT a AS node, a AS val FROM ud)"""
    ]
    prev = "l0"
    for i in range(1, rounds + 1):
        parts.append(
            f""",
        c{i} AS MATERIALIZED (
            SELECT u.a AS node, pl.val AS lbl, count(*) AS c
            FROM ud u JOIN {prev} pl ON pl.node = u.b
            GROUP BY u.a, pl.val),
        l{i} AS MATERIALIZED (
            SELECT l.node, coalesce(p.lbl, l.val) AS val
            FROM {prev} l LEFT JOIN (
                SELECT node, lbl FROM (
                    SELECT node, lbl,
                           row_number() OVER (PARTITION BY node
                               ORDER BY c DESC, lbl ASC) AS rn
                    FROM c{i}) WHERE rn = 1) p USING (node))"""
        )
        prev = f"l{i}"
    parts.append(
        f"""
        SELECT node AS entity_id, val AS community FROM {prev}"""
    )
    return "".join(parts)


def kg_assortativity_sql(transcripts_glob: str) -> str:
    """Directed degree assortativity — mirrors ``stages.graph.assortativity``:
    integer six-moment sums over edge rows of (out_degree(src),
    in_degree(dst)), then the fixed Pearson expression with ONE
    int→double cast per factor (DuckDB integer sums are exact HUGEINT,
    matching Python's arbitrary-precision ints on the Ray side)."""
    return f"""
        WITH RECURSIVE {_edges_cte(transcripts_glob)},
        e AS MATERIALIZED (SELECT src_id, dst_id FROM edges),
        d AS (
            SELECT entity_id,
                   sum(is_out)::BIGINT AS out_degree,
                   sum(1 - is_out)::BIGINT AS in_degree
            FROM (
                SELECT src_id AS entity_id, 1 AS is_out FROM e
                UNION ALL SELECT dst_id, 0 FROM e
            )
            GROUP BY entity_id
        ),
        j AS (
            SELECT ds.out_degree AS x, dd.in_degree AS y
            FROM e
            JOIN d ds ON ds.entity_id = e.src_id
            JOIN d dd ON dd.entity_id = e.dst_id
        ),
        s AS (
            SELECT count(*) AS m, sum(x) AS sx, sum(y) AS sy,
                   sum(x * x) AS sxx, sum(y * y) AS syy, sum(x * y) AS sxy
            FROM j
        )
        SELECT m::BIGINT AS n_edges,
               CASE WHEN m * sxx - sx * sx <= 0 OR m * syy - sy * sy <= 0
                    THEN NULL
                    ELSE round(
                        CAST(m * sxy - sx * sy AS DOUBLE)
                        / (sqrt(CAST(m * sxx - sx * sx AS DOUBLE))
                           * sqrt(CAST(m * syy - sy * sy AS DOUBLE))),
                        4)
               END AS assortativity
        FROM s WHERE m > 0
    """


def kg_edge_reciprocity_sql(transcripts_glob: str) -> str:
    """Mutual-edge fraction — mirrors ``stages.graph.edge_reciprocity``:
    distinct directed non-self-loop edges, unordered-pair direction-flag
    sums (1 | 2, total 3 = reciprocated), ONE exact-int division."""
    return f"""
        WITH RECURSIVE {_edges_cte(transcripts_glob)},
        e AS MATERIALIZED (
            SELECT DISTINCT src_id, dst_id FROM edges
            WHERE src_id <> dst_id
        ),
        p AS (
            SELECT least(src_id, dst_id) AS lo,
                   greatest(src_id, dst_id) AS hi,
                   sum(CASE WHEN src_id < dst_id THEN 1 ELSE 2 END) AS f
            FROM e GROUP BY 1, 2
        ),
        s AS (
            SELECT count(*) AS np,
                   sum(CASE WHEN f = 3 THEN 1 ELSE 0 END) AS nr,
                   sum(CASE WHEN f = 3 THEN 2 ELSE 1 END) AS nd
            FROM p
        )
        SELECT nd::BIGINT AS n_directed_edges,
               nr::BIGINT AS n_reciprocated_pairs,
               round(CAST(2 * nr AS DOUBLE) / nd, 4) AS reciprocity
        FROM s WHERE np > 0
    """


def kg_twohop_sql(transcripts_glob: str) -> str:
    """Distinct ≤2-hop reach per node — mirrors
    ``stages.graph.twohop_reach`` (direct neighbors UNION wedge endpoints
    through any center, self excluded, counted per source node)."""
    return f"""
        WITH RECURSIVE {_edges_cte(transcripts_glob)},
        e AS MATERIALIZED (SELECT src_id, dst_id FROM edges),
        und AS MATERIALIZED (
            SELECT DISTINCT least(src_id, dst_id) AS x,
                            greatest(src_id, dst_id) AS y
            FROM e WHERE src_id <> dst_id
        ),
        ud AS MATERIALIZED (
            SELECT x AS a, y AS b FROM und UNION ALL SELECT y, x FROM und
        ),
        two AS (
            -- UNION ALL + outer DISTINCT: inside a WITH RECURSIVE block
            -- DuckDB does NOT set-dedup a plain UNION across these two
            -- branches (observed: 30,722 rows where the distinct pair set
            -- is 1,332), so the dedup must be explicit
            SELECT a AS u, b AS v FROM ud
            UNION ALL
            SELECT n1.a, n2.b
            FROM ud n1 JOIN ud n2 ON n1.b = n2.a AND n1.a <> n2.b
        )
        SELECT u AS entity_id, count(*)::BIGINT AS reach2
        FROM (SELECT DISTINCT u, v FROM two) GROUP BY u
    """


def kg_adamic_adar_sql(transcripts_glob: str, k: int = 20) -> str:
    """Top-k NON-ADJACENT pairs by Adamic-Adar score — mirrors
    ``stages.graph.adamic_adar_topk`` (pairs u < v with a common
    neighbor and no edge, AA = Σ 1/ln(deg(w)) over common neighbors w,
    rounded to 4 decimals, cut by (aa_score DESC, u, v))."""
    return f"""
        WITH RECURSIVE {_edges_cte(transcripts_glob)},
        e AS MATERIALIZED (SELECT src_id, dst_id FROM edges),
        und AS MATERIALIZED (
            SELECT DISTINCT least(src_id, dst_id) AS x,
                            greatest(src_id, dst_id) AS y
            FROM e WHERE src_id <> dst_id
        ),
        ud AS MATERIALIZED (
            SELECT x AS a, y AS b FROM und UNION ALL SELECT y, x FROM und
        ),
        deg AS MATERIALIZED (SELECT a, count(*) AS d FROM ud GROUP BY a),
        aa AS MATERIALIZED (
            SELECT n1.a AS u, n2.a AS v, sum(1.0 / ln(dw.d)) AS s
            FROM ud n1
            JOIN ud n2 ON n1.b = n2.b AND n1.a < n2.a
            JOIN deg dw ON dw.a = n1.b
            GROUP BY n1.a, n2.a
        )
        SELECT aa.u, aa.v, round(aa.s, 4) AS aa_score
        FROM aa LEFT JOIN und ON und.x = aa.u AND und.y = aa.v
        WHERE und.x IS NULL
        ORDER BY aa_score DESC, aa.u, aa.v LIMIT {k}
    """


def kg_clustering_sql(transcripts_glob: str) -> str:
    """Local clustering coefficient per deg≥2 node — mirrors
    ``stages.graph.clustering_coeff``: deg = distinct undirected
    neighbors, triangles(u) = closed wedges centered at u (each triangle
    counted once per member node), coeff = 2·tri / (deg·(deg−1))."""
    return f"""
        WITH RECURSIVE {_edges_cte(transcripts_glob)},
        simple AS MATERIALIZED (
            SELECT DISTINCT least(src_id, dst_id) AS a,
                            greatest(src_id, dst_id) AS b
            FROM edges WHERE src_id <> dst_id
        ),
        ud AS MATERIALIZED (
            SELECT a AS x, b AS y FROM simple
            UNION ALL SELECT b, a FROM simple
        ),
        deg AS (
            SELECT x AS node, count(*)::BIGINT AS deg FROM ud GROUP BY 1
        ),
        tri AS (
            SELECT w.c AS node, count(*)::BIGINT AS tri
            FROM (SELECT u1.x AS c, u1.y AS a, u2.y AS b
                  FROM ud u1 JOIN ud u2
                       ON u2.x = u1.x AND u1.y < u2.y) w
            JOIN simple s ON s.a = w.a AND s.b = w.b
            GROUP BY 1
        )
        SELECT d.node AS entity_id, d.deg AS degree,
               coalesce(t.tri, 0)::BIGINT AS triangles,
               round(2.0 * coalesce(t.tri, 0) / (d.deg * (d.deg - 1.0)), 4)
                   AS coeff
        FROM deg d LEFT JOIN tri t ON t.node = d.node
        WHERE d.deg >= 2
    """


def kg_ktruss_sql(
    transcripts_glob: str, k: int = 3, rounds: int = 8
) -> str:
    """Fixed-round k-truss peel — mirrors ``stages.graph.ktruss`` (same
    k, same round count; the peel is monotone, so the engine's early
    stability exit equals running all rounds). Final support recomputed
    on the survivors via a LEFT JOIN so pre-convergence zero-support
    edges mirror too."""
    parts = [
        f"""
        t0 AS MATERIALIZED (
            SELECT DISTINCT least(src_id, dst_id) AS a,
                            greatest(src_id, dst_id) AS b
            FROM edges WHERE src_id <> dst_id)"""
    ]
    for i in range(1, rounds + 1):
        parts.append(
            f""",
        ud{i - 1} AS MATERIALIZED (
            SELECT a AS x, b AS y FROM t{i - 1}
            UNION ALL SELECT b, a FROM t{i - 1}),
        s{i} AS MATERIALIZED (
            SELECT e.a, e.b, count(*)::BIGINT AS sup
            FROM t{i - 1} e
            JOIN ud{i - 1} u1 ON u1.x = e.a
            JOIN ud{i - 1} u2 ON u2.x = e.b AND u2.y = u1.y
            GROUP BY e.a, e.b),
        t{i} AS MATERIALIZED (
            SELECT a, b FROM s{i} WHERE sup >= {k - 2})"""
        )
    parts.append(
        f""",
        udF AS MATERIALIZED (
            SELECT a AS x, b AS y FROM t{rounds}
            UNION ALL SELECT b, a FROM t{rounds}),
        sF AS MATERIALIZED (
            SELECT e.a, e.b, count(*)::BIGINT AS sup
            FROM t{rounds} e
            JOIN udF u1 ON u1.x = e.a
            JOIN udF u2 ON u2.x = e.b AND u2.y = u1.y
            GROUP BY e.a, e.b)"""
    )
    return f"""
        WITH RECURSIVE {_edges_cte(transcripts_glob)},{"".join(parts)}
        SELECT e.a, e.b, coalesce(s.sup, 0)::BIGINT AS support
        FROM t{rounds} e LEFT JOIN sF s ON s.a = e.a AND s.b = e.b
    """


def kg_hits_sql(transcripts_glob: str, iters: int = 5) -> str:
    """Weighted HITS with L1 normalization, unrolled as generated CTEs —
    mirrors ``stages.graph.hits`` exactly: auth_k from hub_{k-1}, hub_k
    from the NEW auth_k, contributions linear in edge weight, L1 divide
    after each half-step (guarded identically on both sides), round-to-4
    at the end only. MATERIALIZED for the kg_pagerank reason (DuckDB would
    otherwise re-inline the recursive edge closure into every iteration)."""
    parts = [
        """
        g AS MATERIALIZED (SELECT src_id, dst_id, weight::DOUBLE AS w FROM edges),
        nodes AS MATERIALIZED (SELECT DISTINCT id FROM
                  (SELECT src_id AS id FROM g UNION ALL SELECT dst_id FROM g)),
        nn AS MATERIALIZED (SELECT count(*)::DOUBLE AS n FROM nodes),
        h0 AS (SELECT id, 1.0 / (SELECT n FROM nn) AS v FROM nodes)"""
    ]
    for k in range(1, iters + 1):
        parts.append(
            f""",
        ca{k} AS (SELECT g.dst_id AS id, sum(h.v * g.w) AS c
                  FROM g JOIN h{k - 1} h ON g.src_id = h.id
                  GROUP BY g.dst_id),
        sa{k} AS (SELECT coalesce(sum(c), 0.0) AS s FROM ca{k}),
        a{k} AS MATERIALIZED (
            SELECT n.id,
                   CASE WHEN (SELECT s FROM sa{k}) > 0
                        THEN coalesce(c.c, 0.0) / (SELECT s FROM sa{k})
                        ELSE coalesce(c.c, 0.0) END AS v
            FROM nodes n LEFT JOIN ca{k} c ON c.id = n.id),
        ch{k} AS (SELECT g.src_id AS id, sum(a.v * g.w) AS c
                  FROM g JOIN a{k} a ON g.dst_id = a.id
                  GROUP BY g.src_id),
        sh{k} AS (SELECT coalesce(sum(c), 0.0) AS s FROM ch{k}),
        h{k} AS MATERIALIZED (
            SELECT n.id,
                   CASE WHEN (SELECT s FROM sh{k}) > 0
                        THEN coalesce(c.c, 0.0) / (SELECT s FROM sh{k})
                        ELSE coalesce(c.c, 0.0) END AS v
            FROM nodes n LEFT JOIN ch{k} c ON c.id = n.id)"""
        )
    return f"""
        WITH RECURSIVE {_edges_cte(transcripts_glob)},{"".join(parts)}
        SELECT n.id AS entity_id, round(h.v, 4) AS hub, round(a.v, 4) AS auth
        FROM nodes n
        JOIN h{iters} h ON h.id = n.id
        JOIN a{iters} a ON a.id = n.id
    """


def kg_sssp_sql(transcripts_glob: str, rounds: int = 10) -> str:
    """Round-capped weighted SSSP — mirrors ``stages.graph.sssp``
    (synchronous Bellman-Ford from the lexicographically smallest
    endpoint, edge length = weight, self-loops skipped, parallel pred
    rows relax independently). One MATERIALIZED CTE per round: d_k =
    per-node min over d_{k-1} and every one-arc relaxation of d_{k-1} —
    the min-plus recurrence is monotone, so the engine's early exit on a
    converged round equals running all ``rounds`` (the kcore/ktruss
    convention). Distances are BIGINT sums of BIGINT weights — exact."""
    parts = [
        f"""
        WITH RECURSIVE {_edges_cte(transcripts_glob)},
        e AS MATERIALIZED (SELECT src_id, dst_id, weight FROM edges),
        ud AS MATERIALIZED (
            SELECT src_id AS a, dst_id AS b, weight AS w FROM e
            WHERE src_id <> dst_id
            UNION ALL
            SELECT dst_id, src_id, weight FROM e WHERE src_id <> dst_id
        ),
        seed AS (SELECT least(min(src_id), min(dst_id)) AS id FROM e),
        d0 AS MATERIALIZED (
            SELECT id AS node, 0::BIGINT AS dist FROM seed
            WHERE id IS NOT NULL)"""
    ]
    for i in range(1, rounds + 1):
        parts.append(
            f""",
        d{i} AS MATERIALIZED (
            SELECT node, min(dist)::BIGINT AS dist FROM (
                SELECT node, dist FROM d{i - 1}
                UNION ALL
                SELECT u.b, d.dist + u.w FROM d{i - 1} d
                JOIN ud u ON u.a = d.node
            ) GROUP BY node)"""
        )
    parts.append(
        f"""
        SELECT node AS entity_id, dist FROM d{rounds}"""
    )
    return "".join(parts)


def kg_richclub_sql(transcripts_glob: str) -> str:
    """Rich-club profile — mirrors ``stages.graph.richclub`` (simple
    undirected graph, degree = distinct neighbors, thresholds 1/2/4/8,
    φ = 2·E_k/(N_k·(N_k−1)), NULL below two qualifying nodes)."""
    return f"""
        WITH RECURSIVE {_edges_cte(transcripts_glob)},
        e AS MATERIALIZED (SELECT src_id, dst_id FROM edges),
        und AS MATERIALIZED (
            SELECT DISTINCT least(src_id, dst_id) AS x,
                            greatest(src_id, dst_id) AS y
            FROM e WHERE src_id <> dst_id
        ),
        ud AS (SELECT x AS a, y AS b FROM und
               UNION ALL SELECT y, x FROM und),
        deg AS MATERIALIZED (SELECT a, count(*) AS d FROM ud GROUP BY 1),
        ks AS (SELECT unnest([1, 2, 4, 8]) AS k),
        nk AS (SELECT k, (SELECT count(*) FROM deg WHERE d > k) AS n
               FROM ks),
        ek AS (SELECT k,
                      (SELECT count(*) FROM und u
                       JOIN deg da ON da.a = u.x
                       JOIN deg db ON db.a = u.y
                       WHERE da.d > k AND db.d > k) AS m
               FROM ks)
        SELECT nk.k::BIGINT AS k, nk.n::BIGINT AS n_nodes,
               ek.m::BIGINT AS n_edges,
               CASE WHEN nk.n < 2 THEN NULL
                    ELSE round(2.0 * ek.m
                               / (CAST(nk.n AS DOUBLE) * (nk.n - 1)), 4)
               END AS phi
        FROM nk JOIN ek USING (k)
    """


def kg_edge_weight_gini_sql(transcripts_glob: str) -> str:
    """Gini coefficient over the KG edge-weight distribution — mirrors
    the ``events_user_gini`` closed form (2A/(nB) − (n+1)/n over
    ascending weights; tie order is immaterial because tied weights
    contribute equal terms under any rank permutation)."""
    return f"""
        WITH RECURSIVE {_edges_cte(transcripts_glob)},
        w AS (SELECT weight AS c FROM edges),
        r AS (SELECT c, row_number() OVER (ORDER BY c) AS i FROM w),
        s AS (SELECT count(*)::BIGINT AS n, sum(c)::BIGINT AS b,
                     sum(i * c)::BIGINT AS a
              FROM r)
        SELECT n AS n_edges, b AS total_weight,
               round(2.0 * a / (n * b) - (n + 1.0) / n, 4) AS gini
        FROM s WHERE n > 0
    """


def kg_degree_ccdf_sql(transcripts_glob: str) -> str:
    """Total-degree CCDF — degree census over the edges CTE + an
    integer suffix sum (window over descending degree)."""
    return f"""
        WITH RECURSIVE {_edges_cte(transcripts_glob)},
        e AS MATERIALIZED (SELECT * FROM edges),
        d AS (SELECT entity_id, count(*)::BIGINT AS deg
              FROM (SELECT src_id AS entity_id FROM e
                    UNION ALL SELECT dst_id FROM e)
              GROUP BY 1),
        c AS (SELECT deg, count(*)::BIGINT AS n FROM d GROUP BY 1),
        s AS (SELECT deg, n,
                     sum(n) OVER (ORDER BY deg DESC
                                  ROWS BETWEEN UNBOUNDED PRECEDING
                                           AND CURRENT ROW) AS ge,
                     (SELECT sum(n) FROM c) AS tot
              FROM c)
        SELECT deg AS degree, n AS n_nodes,
               round(ge / CAST(tot AS DOUBLE), 6) AS ccdf
        FROM s ORDER BY degree
    """


def kg_component_sizes_sql(transcripts_glob: str) -> str:
    """Component-size histogram over the components closure."""
    return f"""
        WITH RECURSIVE {_edges_cte(transcripts_glob)},
        e AS MATERIALIZED (SELECT src_id, dst_id FROM edges),
        und AS MATERIALIZED (
            SELECT src_id AS a, dst_id AS b FROM e
            UNION SELECT dst_id, src_id FROM e
        ),
        ereach AS (
            SELECT a, b FROM und
            UNION SELECT r.a, u.b FROM ereach r JOIN und u ON r.b = u.a
        ),
        allnodes AS (
            SELECT DISTINCT src_id AS id FROM e
            UNION SELECT dst_id FROM e
        ),
        lab AS (SELECT n.id,
                       least(n.id, coalesce(min(r.b), n.id)) AS component
                FROM allnodes n LEFT JOIN ereach r ON r.a = n.id
                GROUP BY n.id),
        sz AS (SELECT component, count(*)::BIGINT AS s
               FROM lab GROUP BY 1)
        SELECT s AS size, count(*)::BIGINT AS n_components
        FROM sz GROUP BY 1 ORDER BY size
    """


def kg_predicate_census_sql(transcripts_glob: str) -> str:
    """Per-predicate edge/weight census over the edges CTE."""
    return f"""
        WITH RECURSIVE {_edges_cte(transcripts_glob)},
        c AS (SELECT pred, count(*)::BIGINT AS n,
                     sum(weight)::BIGINT AS w
              FROM edges GROUP BY 1),
        t AS (SELECT sum(w)::BIGINT AS tot FROM c)
        SELECT pred, n AS n_edges, w AS total_weight,
               round(w / CAST((SELECT tot FROM t) AS DOUBLE), 6)
                   AS weight_share
        FROM c ORDER BY pred
    """


def kg_node_type_census_sql(transcripts_glob: str) -> str:
    """Entity-type profile over the nodes construction."""
    return f"""
        WITH RECURSIVE {_nodes_cte(transcripts_glob)},
        n AS (SELECT c.ent_type || ':' || c.canonical AS entity_id,
                     c.ent_type,
                     sum(cl.mention_count)::BIGINT AS mention_count
              FROM canon c JOIN clus cl ON cl.label = c.label
              GROUP BY 1, 2),
        c2 AS (SELECT ent_type, count(*)::BIGINT AS ne,
                      sum(mention_count)::BIGINT AS m
               FROM n GROUP BY 1),
        t AS (SELECT sum(m)::BIGINT AS tot FROM c2)
        SELECT ent_type, ne AS n_entities, m AS total_mentions,
               round(m / CAST((SELECT tot FROM t) AS DOUBLE), 6)
                   AS mention_share
        FROM c2 ORDER BY ent_type
    """


def kg_edge_hygiene_audit_sql(transcripts_glob: str) -> str:
    """Self-loop / parallel-edge hygiene audit over the edges CTE."""
    return f"""
        WITH RECURSIVE {_edges_cte(transcripts_glob)},
        g AS (SELECT src_id, dst_id, count(*)::BIGINT AS k
              FROM edges GROUP BY 1, 2)
        SELECT (SELECT count(*) FROM edges)::BIGINT AS n_edges,
               (SELECT count(*) FROM edges
                WHERE src_id = dst_id)::BIGINT AS n_self_loops,
               (SELECT count(*) FROM g WHERE k > 1)::BIGINT
                   AS n_parallel_groups,
               (SELECT max(k) FROM g)::BIGINT AS max_parallel
    """


def kg_surface_variety_sql(transcripts_glob: str) -> str:
    """Alias-count histogram over the canonical-entity construction."""
    return f"""
        WITH RECURSIVE {_nodes_cte(transcripts_glob)},
        per AS (SELECT c.ent_type || ':' || c.canonical AS entity_id,
                       count(DISTINCT cl.surface)::BIGINT AS k
                FROM canon c JOIN clus cl ON cl.label = c.label
                GROUP BY 1)
        SELECT k AS n_surfaces, count(*)::BIGINT AS n_entities
        FROM per GROUP BY 1 ORDER BY n_surfaces
    """


def kg_mention_density_hist_sql(transcripts_glob: str) -> str:
    """Mentions-per-turn histogram incl. zero-mention turns."""
    return f"""
        WITH RECURSIVE {_mentions_cte(transcripts_glob)},
        per AS (SELECT conv_id, turn_idx, count(*)::BIGINT AS k
                FROM kept GROUP BY 1, 2),
        uni AS (SELECT t.conv_id, t.turn_idx, coalesce(per.k, 0) AS k
                FROM read_parquet('{transcripts_glob}') t
                LEFT JOIN per ON per.conv_id = t.conv_id
                            AND per.turn_idx = t.turn_idx),
        h AS (SELECT k, count(*)::BIGINT AS n FROM uni GROUP BY 1),
        t2 AS (SELECT sum(n)::BIGINT AS tot FROM h)
        SELECT k AS n_mentions, n AS n_turns,
               round(n / CAST((SELECT tot FROM t2) AS DOUBLE), 6) AS share
        FROM h ORDER BY n_mentions
    """
