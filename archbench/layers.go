package main

import "repro/internal/telemetry"

// layerMetrics are the per-layer metrics of a traced run, each with the
// end-to-end metric (and workload) it should move. Layers are named by
// module; webui's self time holds core and xuis too, and on browse's
// GetImage runs the ops/script/turb interpreter, which ops.self_ms_per_op
// isolates.
// A metric with nothing to measure on a workload (no commits on browse,
// no operations on ingest) reads 0.
var layerMetrics = []struct{ name, unit, better, moves string }{
	{"webui.server_ms_per_req", "ms", "lower", "page_p50_ms on browse"},
	{"webui.self_ms_per_req", "ms", "lower", "page_p50_ms on browse"},
	{"webui.transport_ms_per_req", "ms", "lower", "req_per_s on browse"},
	{"webui.page_kb", "KiB", "lower", "nothing: a sanity count"},
	{"sqldb.stmts_per_req", "count", "lower", "page_p50_ms on browse"},
	{"sqldb.select_ms_per_req", "ms", "lower", "page_p50_ms on browse"},
	{"sqldb.heap_reads_per_row", "count", "lower", "page_p50_ms on browse"},
	{"sqldb.plan_cache_hit_ratio", "ratio", "higher", "page_p99_ms on browse"},
	{"sqldb.self_ms_per_req", "ms", "lower", "page_p50_ms on browse, ingest_p50_ms on ingest"},
	{"sqldb.exec_ms_per_ingest", "ms", "lower", "ingest_p50_ms on ingest"},
	{"sqldb.fsync_per_commit", "count", "lower", "ingest_p50_ms on ingest"},
	{"sqldb.fsync_wait_ms_per_commit", "ms", "lower", "ingest_p50_ms on ingest"},
	{"sqldb.wal_bytes_per_commit", "B", "lower", "ingest_p50_ms on ingest"},
	{"sqldb.latch_wait_ms_per_commit", "ms", "lower", "ingest_p99_ms and page_p99_ms on ingest"},
	{"med.link_calls_per_ingest", "count", "lower", "ingest_p50_ms on ingest"},
	{"med.self_ms_per_ingest", "ms", "lower", "ingest_p50_ms on ingest"},
	{"dlfs.stat_rpc_per_req", "count", "lower", "page_p50_ms on browse"},
	{"dlfs.rpc_ms_per_req", "ms", "lower", "page_p50_ms on browse"},
	{"dlfs.rpc_ms_per_req.stat", "ms", "lower", "page_p50_ms on browse"},
	{"dlfs.rpc_ms_per_req.read", "ms", "lower", "download_p50_ms and operation_p50_ms on browse"},
	{"dlfs.rpc_ms_per_req.put", "ms", "lower", "ingest_p50_ms on ingest"},
	{"dlfs.rpc_ms_per_req.prepare", "ms", "lower", "ingest_p50_ms on ingest"},
	{"dlfs.rpc_ms_per_req.commit", "ms", "lower", "ingest_p50_ms on ingest"},
	{"dlfs.read_mb_per_s", "MiB/s", "higher", "download_p50_ms and operation_p50_ms on browse"},
	{"dlfs.put_ms_per_ingest", "ms", "lower", "ingest_p50_ms on ingest"},
	{"dlfs.self_ms_per_req", "ms", "lower", "page_p50_ms on browse, ingest_p50_ms on ingest"},
	{"cluster.member_rpc_per_gateway_req", "count", "lower", "ingest_p50_ms on ingest, download_p99_ms on browse"},
	{"cluster.self_ms_per_gateway_req", "ms", "lower", "ingest_p50_ms on ingest, download_p99_ms on browse"},
	{"cluster.failovers_per_kreq", "count", "lower", "nothing: non-zero flags an unhealthy run"},
	{"ops.self_ms_per_op", "ms", "lower", "operation_p50_ms on browse"},
	{"ops.bytes_in_per_op", "B", "lower", "operation_p50_ms on browse (with bytes_out: the reduction ratio)"},
	{"ops.bytes_out_per_op", "B", "lower", "operation_p50_ms on browse (with bytes_in: the reduction ratio)"},
	{"runtime.gc_cycles_per_kreq", "count", "lower", "cpu_ms_per_req and page_p99_ms on browse"},
	{"runtime.gc_pause_ms_per_req", "ms", "lower", "page_p99_ms on browse"},
	{"trace.overhead_main_p50", "ratio", "lower", "nothing: traced main_p50_ms over untraced, minus 1"},
	{"trace.overhead_cpu_per_req", "ratio", "lower", "nothing: traced cpu_ms_per_req over untraced, minus 1"},
}

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// delta returns the change of a counter (or a histogram's count, or
// with sum set its sum) between two engine snapshots.
func delta(m0, m1 []telemetry.Metric, name string, sum bool) float64 {
	get := func(ms []telemetry.Metric) float64 {
		for _, m := range ms {
			if m.Name != name {
				continue
			}
			if sum && m.Hist != nil {
				return float64(m.Hist.Sum)
			}
			return float64(m.Value)
		}
		return 0
	}
	return get(m1) - get(m0)
}

// perLayer derives the per-layer metrics of traced phase p; base is the
// untraced phase of the same workload and seed. Self times follow the
// fixed call structure — webui → {sqldb → med → dlfs, dlfs, ops → dlfs}
// and gateway → members — so a layer's self time is its spans' total
// minus its callees' totals.
func perLayer(p, base *phase) map[string]metric {
	tr, t := p.layer.tr, &p.tally
	tot := tr.totals()
	ms := func(k spanKind, route string) float64 { return float64(tot.ns[key(k, route)]) / 1e6 }
	cnt := func(k spanKind, route string) float64 { return float64(tot.n[key(k, route)]) }

	reqs := float64(p.completed())
	httpReqs := cnt(spWeb, "*")
	ingests, ops := float64(t.ingests), float64(t.ops)
	commits := float64(tr.sql.commits)
	selects, execs := ms(spSelect, ""), ms(spExec, "")
	hostReads := ms(spHost, "stat") + ms(spHost, "read")
	hostLinks := ms(spHost, "prepare") + ms(spHost, "commit") + ms(spHost, "abort") + ms(spHost, "ensure")
	// Member RPCs on the request path; health probes and link listings
	// (route "other") belong to the gateway's background loop.
	memberFg := ms(spMember, "*") - ms(spMember, "other")
	memberFgN := cnt(spMember, "*") - cnt(spMember, "other")
	clusterSelf := ms(spGateway, "*") - memberFg
	opNs, _ := tr.within("/oprun", spSelect, spHost)
	webSelf := ms(spWeb, "*") - selects - hostReads

	bm, pm := endToEnd(base), endToEnd(p)
	vals := map[string]float64{
		"webui.server_ms_per_req":            div(ms(spWeb, "*"), httpReqs),
		"webui.self_ms_per_req":              div(webSelf, httpReqs),
		"webui.transport_ms_per_req":         div(ms(spClient, "*")-ms(spWeb, "*"), httpReqs),
		"webui.page_kb":                      div(float64(t.pageBytes)/1024, float64(t.html)),
		"sqldb.stmts_per_req":                div(cnt(spSelect, "")+cnt(spExec, ""), reqs),
		"sqldb.select_ms_per_req":            div(selects, reqs),
		"sqldb.heap_reads_per_row":           div(float64(tr.sql.heapReads), float64(tr.sql.selectRows)),
		"sqldb.plan_cache_hit_ratio":         planHitRatio(p.layer.db0, p.layer.db1),
		"sqldb.self_ms_per_req":              div(selects+execs-ms(spMed, "*"), reqs),
		"sqldb.exec_ms_per_ingest":           div(execs, ingests),
		"sqldb.fsync_per_commit":             div(delta(p.layer.db0, p.layer.db1, "sqldb_wal_fsync_ns", false), commits),
		"sqldb.fsync_wait_ms_per_commit":     div(float64(tr.sql.fsyncWaitNs)/1e6, commits),
		"sqldb.wal_bytes_per_commit":         div(float64(p.layer.walBytes), commits),
		"sqldb.latch_wait_ms_per_commit":     div(float64(tr.sql.latchWait)/1e6, commits),
		"med.link_calls_per_ingest":          div(cnt(spMed, "*"), ingests),
		"med.self_ms_per_ingest":             div(ms(spMed, "*")-hostLinks, ingests),
		"dlfs.stat_rpc_per_req":              div(cnt(spRPC, "stat"), reqs),
		"dlfs.rpc_ms_per_req":                div(ms(spRPC, "*"), reqs),
		"dlfs.rpc_ms_per_req.stat":           div(ms(spRPC, "stat"), reqs),
		"dlfs.rpc_ms_per_req.read":           div(ms(spRPC, "read"), reqs),
		"dlfs.rpc_ms_per_req.put":            div(ms(spRPC, "put"), reqs),
		"dlfs.rpc_ms_per_req.prepare":        div(ms(spRPC, "prepare"), reqs),
		"dlfs.rpc_ms_per_req.commit":         div(ms(spRPC, "commit"), reqs),
		"dlfs.read_mb_per_s":                 div(float64(tot.bytes[key(spRPC, "read")])/(1<<20), ms(spRPC, "read")/1e3),
		"dlfs.put_ms_per_ingest":             div(ms(spHost, "put"), ingests),
		"dlfs.self_ms_per_req":               div(ms(spHost, "*")-clusterSelf, reqs),
		"cluster.member_rpc_per_gateway_req": div(memberFgN, cnt(spGateway, "*")),
		"cluster.self_ms_per_gateway_req":    div(clusterSelf, cnt(spGateway, "*")),
		"cluster.failovers_per_kreq":         div(float64(p.layer.failovers)*1000, reqs),
		"ops.self_ms_per_op":                 div(ms(spWeb, "/oprun")-float64(opNs)/1e6, ops),
		"ops.bytes_in_per_op":                div(float64(t.opIn), ops),
		"ops.bytes_out_per_op":               div(float64(t.opOut), ops),
		"runtime.gc_cycles_per_kreq":         div(float64(p.gcs)*1000, reqs),
		"runtime.gc_pause_ms_per_req":        div(float64(p.gcPause)/1e6, reqs),
		"trace.overhead_main_p50":            div(pm["main_p50_ms"].Value, bm["main_p50_ms"].Value) - 1,
		"trace.overhead_cpu_per_req":         div(pm["cpu_ms_per_req"].Value, bm["cpu_ms_per_req"].Value) - 1,
	}
	out := map[string]metric{}
	for _, l := range layerMetrics {
		out[l.name] = metric{vals[l.name], l.unit}
	}
	return out
}

func planHitRatio(m0, m1 []telemetry.Metric) float64 {
	hits := delta(m0, m1, "sqldb_plan_cache_hits_total", false)
	misses := delta(m0, m1, "sqldb_plan_cache_misses_total", false)
	return div(hits, hits+misses)
}
