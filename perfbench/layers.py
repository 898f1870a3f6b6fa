"""Per-layer metrics of the traced pass, and the end-to-end figure each should move.

``LAYERS`` lists every per-layer metric in result-line order: its unit and
the end-to-end metric (and workloads) a change to that layer should move.
A metric of a layer the workload does not exercise reads 0.
"""

from __future__ import annotations

from harness import EXACT_PREFIX
from tracer import PHASE, QUERY

_SETUP = "setup_s (all workloads)"
_QUERY = "query_p50_ms, query_p99_ms (query-mix, owner-churn)"
_UPDATE = "update_p50_s, verified_qps (owner-churn)"
_SERVED = "query_p50_ms = serve_p50_ms.r200 (serve-open)"
_CAPACITY = "verified_qps, serve_max_qps (serve-open)"

#: name -> (unit, what it should move)
LAYERS = {
    # construction, inside the common set-up of every workload
    "crypto.keygen_s": ("s", _SETUP),
    "itree.build_s": ("s", _SETUP),
    "merkle.forest_s": ("s", _SETUP),
    "ifmh.propagate_s": ("s", _SETUP),
    "ifmh.assemble_self_s": ("s", _SETUP + "; peak_rss_mb"),
    "crypto.logical_hashes": ("count", _SETUP),
    "crypto.physical_hashes": ("count", _SETUP),
    "artifact.publish_s": ("s", _SETUP),
    "artifact.bytes": ("B", _SETUP),
    "artifact.load_s": ("s", _SETUP),
    "serving.start_s": ("s", "setup_s (serve-open)"),
    # query path, per query (means over the traced pass)
    "ifmh.search_us": ("us", _QUERY),
    "itree.materialize_us": ("us", _QUERY),
    "itree.materialize_count": ("count", _QUERY + "; high on query-mix, low on hot traffic"),
    "ifmh.score_us": ("us", _QUERY),
    "server.score_cache_hit_ratio": ("ratio", _QUERY + "; near 0 on query-mix"),
    "queryproc.window_us": ("us", _QUERY),
    "ifmh.vo_build_us": ("us", _QUERY),
    "client.verify_us": ("us", _QUERY),
    "crypto.sig_verify_us": ("us", _QUERY),
    "server.nodes_traversed": ("count", _QUERY),
    "client.hash_ops": ("count", _QUERY),
    "ifmh.vo_hash_entries": ("count", "vo_bytes (all workloads)"),
    # update path, per batch
    "resilience.journal_append_s": ("s", _UPDATE),
    "ifmh.update_apply_s": ("s", _UPDATE),
    "update.incremental_ratio": ("ratio", _UPDATE),
    "artifact.delta_publish_s": ("s", _UPDATE),
    "ifmh.to_arrays_s": ("s", _UPDATE + "; setup_s"),
    "artifact.publish_materialize_count": ("count", _UPDATE),
    "server.swap_s": ("s", _UPDATE),
    "merkle.arena_growth_rows": ("rows", "delta_mb (owner-churn)"),
    # serving, from ticket timestamps and worker statistics
    "serving.queue_wait_ms.p50.r200": ("ms", _SERVED),
    "serving.queue_wait_ms.p99.r200": ("ms", _SERVED),
    "serving.queue_wait_ms.p50.r2000": ("ms", "serve_p50_ms.r2000 (serve-open)"),
    "serving.queue_wait_ms.p99.r2000": ("ms", "serve_p50_ms.r2000 (serve-open)"),
    "serving.reply_ms.p50.r200": ("ms", _SERVED + "; serve_p99_ms.r200"),
    "serving.reply_ms.p99.r200": ("ms", "serve_p99_ms.r200 (serve-open)"),
    "serving.reply_ms.p50.r2000": ("ms", "serve_p99_ms.r2000 (serve-open)"),
    "serving.reply_ms.p99.r2000": ("ms", "serve_p99_ms.r2000 (serve-open)"),
    "serving.service_ms_per_query": ("ms", _CAPACITY),
    "serving.batch_size_mean": ("count", _CAPACITY),
    "serving.worker_utilisation": ("ratio", _CAPACITY),
    "serving.requeued": ("count", "failed_frac (serve-open)"),
    "serving.respawns": ("count", "failed_frac (serve-open)"),
    "loadgen.lateness_p99_ms.r200": ("ms", "serve_p99_ms.r200 (harness health)"),
    "loadgen.lateness_p99_ms.r2000": ("ms", "serve_p99_ms.r2000 (harness health)"),
    "frontend.gc2_pauses": ("count", "serve_p99_ms.* (serve-open)"),
    "frontend.gc2_pause_s": ("s", "serve_p99_ms.* (serve-open)"),
}


def layer_metrics(tracer, outcome):
    """``{name: (value, unit)}`` for every entry of :data:`LAYERS`."""
    exact = outcome.exact
    batches = outcome.samples.get("update", 0)

    def per_batch(total):
        return total / batches if batches else 0.0

    def us(name):
        return tracer.mean(name, "query") * 1e6

    materialized = tracer.select("itree.materialize")
    values = {
        "crypto.keygen_s": tracer.total("crypto.keygen", "setup"),
        "itree.build_s": tracer.total("itree.build", "setup"),
        "merkle.forest_s": tracer.total("merkle.forest", "setup"),
        "ifmh.propagate_s": tracer.total("ifmh.propagate", "setup"),
        "ifmh.assemble_self_s": tracer.self_time("ifmh.assemble", "setup"),
        "crypto.logical_hashes": exact["logical_hashes"],
        "crypto.physical_hashes": exact["physical_hashes"],
        "artifact.publish_s": tracer.total("artifact.publish", "setup"),
        "artifact.bytes": exact["artifact_bytes"],
        "artifact.load_s": tracer.total("artifact.load", "setup"),
        "serving.start_s": tracer.total("serving.start", "setup"),
        "ifmh.search_us": us("ifmh.search"),
        "itree.materialize_us": us("itree.materialize"),
        "itree.materialize_count": sum(
            1 for span in materialized
            if span[PHASE] == "query" and 0 <= span[QUERY] < EXACT_PREFIX
        ),
        "ifmh.score_us": us("ifmh.score"),
        "queryproc.window_us": us("queryproc.window"),
        "ifmh.vo_build_us": us("ifmh.vo_build"),
        "client.verify_us": us("client.verify"),
        "crypto.sig_verify_us": us("crypto.sig_verify"),
        "server.nodes_traversed": exact["server_nodes"],
        "client.hash_ops": exact["client_hashes"],
        "ifmh.vo_hash_entries": exact["vo_hash_entries"],
        "resilience.journal_append_s": per_batch(tracer.total("resilience.journal_append", "update")),
        "ifmh.update_apply_s": per_batch(tracer.total("ifmh.update_apply", "update")),
        "artifact.delta_publish_s": per_batch(tracer.total("artifact.publish", "update")),
        "ifmh.to_arrays_s": per_batch(tracer.total("ifmh.to_arrays", "update")),
        "artifact.publish_materialize_count": per_batch(sum(
            1 for span in materialized
            if span[PHASE] == "update" and "artifact.publish" in tracer.ancestors(span)
        )),
        "server.swap_s": per_batch(tracer.total("server.swap", "update")),
        "merkle.arena_growth_rows": per_batch(sum(tracer.arena_growth)),
    }
    return {
        name: (float(values.get(name, outcome.layers.get(name, 0.0))), unit)
        for name, (unit, _moves) in LAYERS.items()
    }
