package main

import (
	"crypto/ed25519"
	"runtime"
	"strings"
	"time"

	"lazarus/internal/bft"
	"lazarus/internal/metrics"
)

// hotTypes are the message types of the ordering fast path.
var hotTypes = []bft.MsgType{bft.MsgRequest, bft.MsgPrePrepare, bft.MsgPrepare, bft.MsgCommit, bft.MsgReply}

// criticalPathHops is how many frames in a row a request waits for.
const criticalPathHops = 5

// swapStages are the stages of the controller's swap engine, as its
// registry names them.
var swapStages = []string{"boot", "add", "catch-up", "remove", "power-off"}

func typeName(t bft.MsgType) string { return strings.ToLower(t.String()) }

// perLayer are the metrics of single layers, read in the traced run. A
// layer is a module of the repository. None is gated; a value of 0 on a
// workload that has no such layer (netem without emulation, controlplane
// without a controller) means "not there", not "free".
var perLayer = buildPerLayer()

func buildPerLayer() []metricSpec {
	specs := []metricSpec{
		{Name: "client.retransmits", Unit: "count", Better: "lower"},
		{Name: "client.invoke_p95_ms", Unit: "ms", Better: "lower"},
		{Name: "client.read_p50_ms", Unit: "ms", Better: "lower"},
		{Name: "client.write_p50_ms", Unit: "ms", Better: "lower"},
		{Name: "transport.transit_p50_us", Unit: "us", Better: "lower"},
		{Name: "transport.transit_p99_us", Unit: "us", Better: "lower"},
		{Name: "transport.send_call_us", Unit: "us", Better: "lower"},
		{Name: "transport.frames_per_op", Unit: "count", Better: "lower"},
		{Name: "transport.bytes_per_op", Unit: "B", Better: "lower"},
		{Name: "transport.drops", Unit: "count", Better: "lower"},
		{Name: "netem.delayed_frames", Unit: "count", Better: "lower"},
		{Name: "netem.injected_delay_us_per_op", Unit: "us", Better: "lower"},
		{Name: "bft.batch_occupancy", Unit: "count", Better: "higher"},
		{Name: "bft.pipeline_inflight_mean", Unit: "count", Better: "higher"},
		{Name: "bft.msgs_per_op.checkpoint", Unit: "count", Better: "lower"},
		{Name: "bft.verify_ops_per_op", Unit: "count", Better: "lower"},
		{Name: "bft.verify_cache_hit_ratio", Unit: "%", Better: "higher"},
		{Name: "bft.commit_latency_p50_us", Unit: "us", Better: "lower"},
		{Name: "bft.view_changes", Unit: "count", Better: "lower"},
		{Name: "bft.state_transfers", Unit: "count", Better: "lower"},
		{Name: "bft.stragglers", Unit: "count", Better: "lower"},
		{Name: "codec.ns_per_op", Unit: "ns", Better: "lower"},
		{Name: "crypto.sign_request_ns", Unit: "ns", Better: "lower"},
		{Name: "crypto.verify_request_ns", Unit: "ns", Better: "lower"},
		{Name: "crypto.verify_reply_ns", Unit: "ns", Better: "lower"},
		{Name: "crypto.ns_per_op", Unit: "ns", Better: "lower"},
		{Name: "app.execute_us", Unit: "us", Better: "lower"},
		{Name: "app.execute_busy_share", Unit: "%", Better: "lower"},
		{Name: "app.snapshot_ms", Unit: "ms", Better: "lower"},
		{Name: "app.restore_ms", Unit: "ms", Better: "lower"},
		{Name: "controlplane.remediate_p50_ms", Unit: "ms", Better: "lower"},
		{Name: "controlplane.swap_p50_ms", Unit: "ms", Better: "lower"},
		{Name: "controlplane.refresh_ms", Unit: "ms", Better: "lower"},
		{Name: "cluster.build_ms", Unit: "ms", Better: "lower"},
		{Name: "core.engine_build_ms", Unit: "ms", Better: "lower"},
		{Name: "controlplane.monitor_eval_ms", Unit: "ms", Better: "lower"},
		{Name: "controlplane.wal_appends_per_swap", Unit: "count", Better: "lower"},
		{Name: "controlplane.swap_retries", Unit: "count", Better: "lower"},
		{Name: "controlplane.swap_failed", Unit: "count", Better: "lower"},
		{Name: "controlplane.no_reconfig_rounds", Unit: "count", Better: "lower"},
		{Name: "swap.service_gap_max_ms", Unit: "ms", Better: "lower"},
		{Name: "swap.stalled_share", Unit: "%", Better: "lower"},
		{Name: "swap.max_ms", Unit: "ms", Better: "lower"},
		{Name: "runtime.alloc_kb_per_op", Unit: "KiB", Better: "lower"},
		{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower"},
		{Name: "runtime.sys_mb", Unit: "MiB", Better: "lower"},
		{Name: "loadgen.sched_lag_p99_ms", Unit: "ms", Better: "lower"},
		{Name: "loadgen.backlog_max", Unit: "count", Better: "lower"},
		{Name: "loadgen.failed_share", Unit: "%", Better: "lower"},
		{Name: "trace.overhead_share", Unit: "%", Better: "lower"},
		{Name: "trace.matched_share", Unit: "%", Better: "higher"},
		{Name: "machine.speed", Unit: "%", Better: "higher"},
	}
	// The seven budget rows, each as p50 and mean.
	for _, row := range budgetRowNames {
		specs = append(specs,
			metricSpec{Name: row + "_us", Unit: "us", Better: "lower"},
			metricSpec{Name: row + "_mean_us", Unit: "us", Better: "lower"})
	}
	for _, t := range hotTypes {
		n := typeName(t)
		specs = append(specs,
			metricSpec{Name: "bft.msgs_per_op." + n, Unit: "count", Better: "lower"},
			metricSpec{Name: "codec.encode_ns." + n, Unit: "ns", Better: "lower"},
			metricSpec{Name: "codec.decode_ns." + n, Unit: "ns", Better: "lower"},
			metricSpec{Name: "codec.bytes." + n, Unit: "B", Better: "lower"})
	}
	for _, stage := range swapStages {
		specs = append(specs,
			metricSpec{Name: "controlplane.stage_" + stage + "_ms", Unit: "ms", Better: "lower"},
			metricSpec{Name: "controlplane.stage_" + stage + "_max_ms", Unit: "ms", Better: "lower"})
	}
	return specs
}

// delta reads how much a registry counter grew over the window.
func delta(w *window, name string) float64 {
	return float64(w.after.reg.Counters[name] - w.before.reg.Counters[name])
}

// deltaMean is the mean of the histogram observations made in the window.
func deltaMean(w *window, name string) float64 {
	a, b := w.after.reg.Histograms[name], w.before.reg.Histograms[name]
	if a.Count == b.Count {
		return 0
	}
	return float64(a.Sum-b.Sum) / float64(a.Count-b.Count)
}

func share(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * part / whole
}

// perLayerValues derives the per-layer metrics of a traced measurement;
// plain is the untraced measurement taken just before it, the reference
// for what tracing costs.
func perLayerValues(m *measured, tr *tracer, plain *measured) map[string]value {
	pooled := pool(m.slices)
	w := &pooled
	out := make(map[string]value, len(perLayer))
	units := make(map[string]string, len(perLayer))
	for _, spec := range perLayer {
		units[spec.Name] = spec.Unit
	}
	set := func(name string, v float64) { out[name] = value{Value: v, Unit: units[name]} }

	lat := okLatencies(w.invs, nil)
	ops := float64(len(lat))
	var elapsed, stalled, longestGap time.Duration
	for i := range m.slices {
		sl := &m.slices[i]
		elapsed += sl.win.end.Sub(sl.win.start)
		total, longest := stalledTime(&sl.win, stallGap)
		stalled += total
		if longest > longestGap {
			longestGap = longest
		}
	}
	t := tr.analyse(w)
	set("machine.speed", 100*mean(m.speeds))

	// client and loadgen: what the generator saw.
	set("client.retransmits", float64(t.retransmitted))
	set("client.invoke_p95_ms", percentile(lat, 0.95))
	set("client.read_p50_ms", percentile(okLatencies(w.invs, func(in *invocation) bool { return in.read }), 0.50))
	set("client.write_p50_ms", percentile(okLatencies(w.invs, func(in *invocation) bool { return !in.read }), 0.50))
	set("loadgen.sched_lag_p99_ms", percentile(durationsIn(w.lags, time.Millisecond), 0.99))
	set("loadgen.backlog_max", float64(w.backlogMax))
	set("loadgen.failed_share", share(float64(len(w.invs))-ops, float64(len(w.invs))))

	// The budget: seven rows per request, telescoping to its latency.
	for r, row := range budgetRowNames {
		vals := make([]float64, len(t.spans))
		for i := range t.spans {
			vals[i] = us(t.spans[i].rows[r])
		}
		set(row+"_us", percentile(vals, 0.50))
		set(row+"_mean_us", mean(vals))
	}
	set("trace.matched_share", share(float64(len(t.spans)), ops))
	plainP50 := plain.medianSlice().p50
	set("trace.overhead_share", share(m.medianSlice().p50-plainP50, plainP50))

	// transport and netem: the tap's frame pairs and the networks' counters.
	transits := durationsIn(t.transits, time.Microsecond)
	set("transport.transit_p50_us", percentile(transits, 0.50))
	set("transport.transit_p99_us", percentile(transits, 0.99))
	set("transport.send_call_us", mean(durationsIn(t.sendCalls, time.Microsecond)))
	set("transport.frames_per_op", perOp(float64(w.after.net.FramesSent-w.before.net.FramesSent), ops))
	set("transport.bytes_per_op", perOp(float64(w.after.net.BytesSent-w.before.net.BytesSent), ops))
	set("transport.drops", float64(w.after.net.Drops()-w.before.net.Drops()))
	set("netem.delayed_frames", float64(w.after.netem.Delayed-w.before.netem.Delayed))
	// A request's critical path crosses the network five times (request,
	// pre-prepare, prepare, commit, reply); nothing the code does can
	// shorten that many injected delays.
	set("netem.injected_delay_us_per_op", criticalPathHops*deltaMean(w, "netem.delay_us"))

	// bft: the replicas' own registry, over the window.
	set("bft.batch_occupancy", deltaMean(w, "bft.batch_occupancy"))
	set("bft.pipeline_inflight_mean", deltaMean(w, "bft.pipeline_inflight"))
	set("bft.msgs_per_op.checkpoint", perOp(float64(t.received[bft.MsgCheckpoint]), ops))
	verifies, hits := delta(w, "bft.verify_ops"), delta(w, "bft.verify_cache_hits")
	set("bft.verify_ops_per_op", perOp(verifies, ops))
	set("bft.verify_cache_hit_ratio", share(hits, hits+verifies))
	set("bft.commit_latency_p50_us", float64(w.after.reg.Histograms["bft.commit_latency_us"].P50))
	set("bft.view_changes", delta(w, "bft.view_changes"))
	set("bft.state_transfers", delta(w, "bft.state_transfers"))
	set("bft.stragglers", float64(m.stragglers))

	// codec and crypto: unit costs timed now, on payloads the tap kept,
	// times how often the run paid them per operation. The frames are let
	// go first: timing next to a collector that still has a run's worth of
	// them to mark would charge its work to the codec.
	tr.release()
	runtime.GC()
	var codecNS float64
	for _, typ := range hotTypes {
		n := typeName(typ)
		enc, dec := codecUnitCosts(t.samples[typ])
		set("bft.msgs_per_op."+n, perOp(float64(t.received[typ]), ops))
		set("codec.encode_ns."+n, enc)
		set("codec.decode_ns."+n, dec)
		set("codec.bytes."+n, perOp(float64(t.bytes[typ]), float64(t.received[typ])))
		codecNS += enc*perOp(float64(t.encoded[typ]), ops) + dec*perOp(float64(t.received[typ]), ops)
	}
	set("codec.ns_per_op", codecNS)
	sign, verifyReq, verifyReply := cryptoUnitCosts(t.samples[bft.MsgRequest], t.samples[bft.MsgReply])
	set("crypto.sign_request_ns", sign)
	set("crypto.verify_request_ns", verifyReq)
	set("crypto.verify_reply_ns", verifyReply)
	// Signatures made per operation: the client's, one per reply, and one
	// per pre-prepare or prepare encoded. Verifications: the requests the
	// replicas verified, the f+1 replies the client needed, and every
	// pre-prepare and prepare received. Request costs stand in for any
	// signature, reply costs for any replica-signature check.
	signs := 1 + perOp(float64(t.encoded[bft.MsgReply]+t.encoded[bft.MsgPrePrepare]+t.encoded[bft.MsgPrepare]), ops)
	checks := float64(faults+1) + perOp(float64(t.received[bft.MsgPrePrepare]+t.received[bft.MsgPrepare]), ops)
	set("crypto.ns_per_op", sign*signs+verifyReq*perOp(verifies, ops)+verifyReply*checks)

	// app: the application taps.
	executes, snapshots, restores := tr.appCalls()
	var execUS []float64
	var execBusy time.Duration
	for _, c := range executes {
		if !c.at.Before(w.start) && c.at.Before(w.end) {
			execUS = append(execUS, us(c.dur))
			execBusy += c.dur
		}
	}
	set("app.execute_us", percentile(execUS, 0.50))
	set("app.execute_busy_share", share(execBusy.Seconds(), elapsed.Seconds()*replicaCount))
	set("app.snapshot_ms", percentile(callsMS(snapshots), 0.50))
	set("app.restore_ms", percentile(callsMS(restores), 0.50))

	// controlplane, cluster, core: the controller's registry and rounds.
	var remediate, swap []float64
	var idle, failedSwaps int
	for i := range m.slices {
		r := m.slices[i].round
		if r == nil {
			continue
		}
		failedSwaps = r.failedSwaps
		if r.err == nil && r.reconfigured {
			remediate = append(remediate, ms(r.refresh+r.monitor))
			swap = append(swap, ms(r.monitor))
		} else if r.err == nil {
			idle++
		}
	}
	hist := func(name string) metrics.HistogramSnapshot { return w.after.reg.Histograms[name] }
	set("controlplane.remediate_p50_ms", percentile(remediate, 0.50))
	set("controlplane.swap_p50_ms", percentile(swap, 0.50))
	set("swap.max_ms", maxOf(swap))
	set("controlplane.refresh_ms", float64(hist("controlplane.intel_refresh_us").P50)/1e3)
	set("cluster.build_ms", float64(hist("controlplane.cluster_build_us").P50)/1e3)
	set("core.engine_build_ms", (deltaMean(w, "controlplane.intel_refresh_us")-deltaMean(w, "controlplane.cluster_build_us"))/1e3)
	set("controlplane.monitor_eval_ms", float64(hist("controlplane.monitor_round_us").P50)/1e3)
	for _, stage := range swapStages {
		h := hist("controlplane.swap_stage_us." + stage)
		set("controlplane.stage_"+stage+"_ms", float64(h.P50)/1e3)
		set("controlplane.stage_"+stage+"_max_ms", float64(h.Max)/1e3)
	}
	set("controlplane.wal_appends_per_swap", perOp(delta(w, "controlplane.wal_appends"), delta(w, "controlplane.swap_attempts")))
	set("controlplane.swap_retries", delta(w, "controlplane.swap_retries"))
	set("controlplane.swap_failed", float64(failedSwaps))
	set("controlplane.no_reconfig_rounds", float64(idle))
	set("swap.service_gap_max_ms", ms(longestGap))
	set("swap.stalled_share", share(stalled.Seconds(), elapsed.Seconds()))

	// runtime: the Go runtime's own accounts over the window.
	set("runtime.alloc_kb_per_op", perOp(float64(w.after.mem.TotalAlloc-w.before.mem.TotalAlloc)/1024, ops))
	set("runtime.gc_pause_ms", float64(w.after.mem.PauseTotalNs-w.before.mem.PauseTotalNs)/1e6)
	set("runtime.sys_mb", float64(w.after.mem.Sys)/(1<<20))

	return out
}

func callsMS(calls []appCall) []float64 {
	out := make([]float64, len(calls))
	for i, c := range calls {
		out[i] = ms(c.dur)
	}
	return out
}

// unitCostBudget is how long one unit cost is timed for.
const unitCostBudget = 20 * time.Millisecond

// timePerCall runs fn over and over for the budget and returns ns per call.
func timePerCall(fn func(i int)) float64 {
	start := time.Now()
	calls := 0
	for time.Since(start) < unitCostBudget {
		for i := 0; i < 64; i++ {
			fn(calls + i)
		}
		calls += 64
	}
	return float64(time.Since(start).Nanoseconds()) / float64(calls)
}

// codecUnitCosts times bft.Encode and bft.Decode on captured payloads of
// one message type.
func codecUnitCosts(payloads [][]byte) (encodeNS, decodeNS float64) {
	var msgs []*bft.Message
	for _, p := range payloads {
		if m, err := bft.Decode(p); err == nil {
			msgs = append(msgs, m)
		}
	}
	if len(msgs) == 0 {
		return 0, 0
	}
	decodeNS = timePerCall(func(i int) { _, _ = bft.Decode(payloads[i%len(payloads)]) })
	encodeNS = timePerCall(func(i int) { _, _ = bft.Encode(msgs[i%len(msgs)]) })
	return encodeNS, decodeNS
}

// cryptoUnitCosts times Request.Sign, Request.Verify and Message.VerifySig
// on captured requests and replies. The payloads are re-signed with a key
// of the benchmark's own first, so that what is verified is valid; a
// check that fails all the same leaves its cost unreported.
func cryptoUnitCosts(requests, replies [][]byte) (signNS, verifyRequestNS, verifyReplyNS float64) {
	key := seedKey(0, "unit-cost", 0)
	pub := key.Public().(ed25519.PublicKey)
	valid := true
	var reqs []*bft.Request
	for _, p := range requests {
		if m, err := bft.Decode(p); err == nil && m.Request != nil {
			m.Request.Sign(key)
			reqs = append(reqs, m.Request)
		}
	}
	if len(reqs) > 0 {
		signNS = timePerCall(func(i int) { reqs[i%len(reqs)].Sign(key) })
		verifyRequestNS = timePerCall(func(i int) {
			if !reqs[i%len(reqs)].Verify(pub) {
				valid = false
			}
		})
	}
	var reps []*bft.Message
	for _, p := range replies {
		if m, err := bft.Decode(p); err == nil {
			m.Sign(key)
			reps = append(reps, m)
		}
	}
	if len(reps) > 0 {
		verifyReplyNS = timePerCall(func(i int) {
			if !reps[i%len(reps)].VerifySig(pub) {
				valid = false
			}
		})
	}
	if !valid {
		return signNS, 0, 0
	}
	return signNS, verifyRequestNS, verifyReplyNS
}
