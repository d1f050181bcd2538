package benchmarks

import "slices"

// perLayer fills the per-layer metrics of a traced run from three
// sources, all outside the program: counter deltas over the window, the
// seam spans, and (in probes.go) standalone layer probes. A metric that
// does not apply to the workload reads 0. README.md lists which
// end-to-end metric each one is expected to move, on which workload.
func (e *env) perLayer(rec *Record, res *loopResult, marks []mark, before, after counters, occHW float64, goroutinesPeak int) {
	ops := float64(res.ops)
	kops := ops / 1000
	d := func(a, b int64) float64 { return float64(a - b) }

	// client.* — the latency classes as the worker saw them.
	reads := sortedLat(res.reads)
	writes := sortedLat(res.writes)
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	rec.Samples["reads"] = int64(len(reads))
	rec.Samples["writes"] = int64(len(writes))
	rec.set("client.write_p50_us", us(quantile(writes, 0.50)), "us")
	rec.set("client.write_p99_us", us(quantile(writes, 0.99)), "us")
	rec.set("client.write_p999_us", us(quantile(writes, 0.999)), "us")
	rec.set("client.read_p50_us", us(quantile(reads, 0.50)), "us")
	rec.set("client.read_p99_us", us(quantile(reads, 0.99)), "us")
	rec.set("client.read_p999_us", us(quantile(reads, 0.999)), "us")
	rec.set("client.lat_max_us", us(max(quantile(reads, 1), quantile(writes, 1))), "us")

	// Spans: self time of the root, and the two round trips.
	sp := e.tr.recorded()
	childSum := make(map[uint32]int64) // root span id -> time covered by its msgr children
	childCnt := make(map[uint32]int)
	var clientRTT, replRTT, devRead []int64
	for i := range sp {
		s := &sp[i]
		if s.End == 0 {
			continue
		}
		dur := s.End - s.Start
		switch s.Kind {
		case spanClientRTT:
			clientRTT = append(clientRTT, dur)
			childSum[s.Parent] += dur
			childCnt[s.Parent]++
		case spanReplRTT:
			replRTT = append(replRTT, dur)
		case spanDevRead:
			devRead = append(devRead, dur)
		}
	}
	var self []int64
	var roots, requests int
	for i := range sp {
		s := &sp[i]
		if s.Kind != spanClientOp || s.End == 0 || childCnt[s.ID] == 0 {
			continue
		}
		roots++
		requests += childCnt[s.ID]
		self = append(self, s.End-s.Start-childSum[s.ID])
	}
	slices.Sort(self)
	slices.Sort(clientRTT)
	slices.Sort(replRTT)
	slices.Sort(devRead)
	rec.Samples["spans"] = int64(len(sp))
	rec.Samples["spans_dropped"] = e.tr.drops.Load()
	rec.Samples["traced_roots"] = int64(roots)
	rec.set("client.op_self_us", us(quantile(self, 0.50)), "us")
	rec.set("client.retries_per_kop", 1000*ratio(float64(requests-roots), float64(roots)), "1/kop")
	rec.set("msgr.client_rtt_p50_us", us(quantile(clientRTT, 0.50)), "us")
	rec.set("msgr.repl_rtt_p50_us", us(quantile(replRTT, 0.50)), "us")

	// msgr.* / wire.* — frames from the program's own send counter, sizes
	// and send self time from the transport seam (traced slices only).
	tracedOps := float64(res.tracedOps)
	rec.set("msgr.frames_per_op", ratio(d(after.sends, before.sends), ops), "1/op")
	rec.set("msgr.bytes_per_op", ratio(float64(e.tr.wireBytes.Load()), tracedOps), "B/op")
	rec.set("msgr.send_self_ns", ratio(float64(e.tr.sendNs.Load()), float64(e.tr.sends.Load())), "ns")
	rec.set("wire.pool_hit_pct", 100*ratio(float64(after.poolHits-before.poolHits), float64(after.poolGets-before.poolGets)), "%")

	// osd.* — busy time by thread class, batching factors, QoS ladder.
	rec.set("osd.cpu_pt_us_per_op", ratio(float64(after.busyPT-before.busyPT)/1e3, ops), "us")
	rec.set("osd.cpu_npt_us_per_op", ratio(float64(after.busyNPT-before.busyNPT)/1e3, ops), "us")
	rec.set("osd.repl_ops_per_batch", ratio(d(after.replBatchedOps, before.replBatchedOps), d(after.replBatchFrames, before.replBatchFrames)), "op/frame")
	rec.set("osd.flush_entries_per_batch", ratio(d(after.flushedEntries, before.flushedEntries), d(after.flushBatches, before.flushBatches)), "1/batch")
	rec.set("osd.flush_coalesce_ratio", ratio(d(after.flushedEntries, before.flushedEntries), d(after.flushStoreOps, before.flushStoreOps)), "x")
	rec.set("osd.forced_flush_per_kop", ratio(d(after.forcedFlush, before.forcedFlush), kops), "1/kop")
	rec.set("osd.throttle_delays_per_kop", ratio(d(after.throttleDelays, before.throttleDelays), kops), "1/kop")
	rec.set("osd.throttle_rejects_per_kop", ratio(d(after.throttleRejects, before.throttleRejects), kops), "1/kop")
	rec.set("osd.laggy_nacks_per_kop", ratio(d(after.laggyNacks, before.laggyNacks), kops), "1/kop")

	// oplog.*
	appends := d(after.oplog.Appends, before.oplog.Appends)
	logReads := d(after.oplog.ReadHits, before.oplog.ReadHits) + d(after.oplog.ReadMisses, before.oplog.ReadMisses)
	rec.set("oplog.appends_per_group", ratio(appends, d(after.oplog.Groups, before.oplog.Groups)), "1/group")
	rec.set("oplog.persists_per_append", ratio(d(after.nvmOps, before.nvmOps), appends), "1/append")
	rec.set("oplog.occupancy_hw_pct", 100*occHW, "%")
	rec.set("oplog.full_stalls", d(after.oplog.FullStalls, before.oplog.FullStalls), "count")
	rec.set("oplog.read_hit_pct", 100*ratio(d(after.oplog.ReadHits, before.oplog.ReadHits), logReads), "%")

	// rcache.*
	lookups := d(after.rcHits, before.rcHits) + d(after.rcMisses, before.rcMisses)
	rec.set("rcache.hit_pct", 100*ratio(d(after.rcHits, before.rcHits), lookups), "%")
	rec.set("rcache.occupancy_pct", 100*ratio(float64(after.rcOccupied), float64(after.rcSlots)), "%")
	rec.set("rcache.evictions_per_kop", ratio(d(after.rcEvictions, before.rcEvictions), kops), "1/kop")
	rec.set("rcache.invalidations_per_kop", ratio(d(after.rcInvalidations, before.rcInvalidations), kops), "1/kop")
	rec.set("rcache.fill_aborts_per_kop", ratio(d(after.rcFillAborts, before.rcFillAborts), kops), "1/kop")

	// cos.* / nvm.* / dev.*
	dev := after.dev.Sub(before.dev)
	nReads := float64(len(reads))
	rec.set("cos.dev_writes_per_store_op", ratio(float64(dev.WriteOps), d(after.flushStoreOps, before.flushStoreOps)), "1/op")
	rec.set("cos.cksum_read_errors", d(after.cksumReadErrors, before.cksumReadErrors), "count")
	rec.set("nvm.persist_ops_per_op", ratio(d(after.nvmOps, before.nvmOps), ops), "1/op")
	rec.set("nvm.persist_bytes_per_op", ratio(d(after.nvmBytes, before.nvmBytes), ops), "B/op")
	rec.set("dev.write_ops_per_op", ratio(float64(dev.WriteOps), ops), "1/op")
	rec.set("dev.segs_per_vec_write", ratio(float64(dev.VecSegs), float64(dev.VecOps)), "1/write")
	rec.set("dev.read_ops_per_read", ratio(float64(dev.ReadOps), nReads), "1/read")
	rec.set("dev.flushes_per_kop", ratio(float64(dev.Flushes), kops), "1/kop")
	rec.set("dev.read_wait_p50_us", us(quantile(devRead, 0.50)), "us")

	// Time inside wrapped device writes, as a share of the traced wall
	// time of one device (can exceed 100 when a device's writes overlap).
	var tracedNs int64
	for k := 1; k+1 < len(marks); k += 2 {
		tracedNs += int64(marks[k+1].at.Sub(marks[k].at))
	}
	rec.set("dev.write_busy_pct", 100*ratio(float64(e.tr.devWriteNs.Load()), float64(tracedNs)*clusterOSDs), "%")

	// rt.*
	rec.set("rt.allocs_per_op", ratio(float64(after.mallocs-before.mallocs), ops), "1/op")
	rec.set("rt.gc_cpu_pct", 100*ratio(after.gcCPU-before.gcCPU, after.totalCPU-before.totalCPU), "%")
	rec.set("rt.goroutines_peak", float64(goroutinesPeak), "count")

	// trace.overhead_pct: throughput of the idle-wrapper slices against
	// the traced slices of this same window.
	var idleSlices, tracedSlices []SliceStat
	for _, s := range sliceStats(res, marks, e.wl.readMajor()) {
		if s.index%2 == 1 {
			tracedSlices = append(tracedSlices, s)
		} else {
			idleSlices = append(idleSlices, s)
		}
	}
	idle := medianOf(idleSlices, func(s SliceStat) float64 { return s.IOPS })
	traced := medianOf(tracedSlices, func(s SliceStat) float64 { return s.IOPS })
	rec.set("trace.overhead_pct", 100*ratio(idle-traced, idle), "%")
	rec.Samples["idle_slice_iops"] = int64(idle)
	rec.Samples["traced_slice_iops"] = int64(traced)
}

// reconcile compares, from outside, the layer figures along a write's
// blocking path with the write latency the worker saw: the client's own
// time, one messenger round trip with no OSD work behind it (echo probe),
// the NVM log append on the primary (probe) and the replication round
// trip (span). What the sum leaves uncovered is time inside the primary
// OSD that no seam can see yet: ingress routing, shard hand-off, wake-ups.
func (e *env) reconcile(rec *Record) {
	m := rec.Metrics
	p50 := m["client.write_p50_us"].Value
	sum := m["client.op_self_us"].Value + m["msgr.echo4k_ns"].Value/1e3 +
		m["oplog.append_ns"].Value/1e3 + m["msgr.repl_rtt_p50_us"].Value
	if !e.wl.hasWrites() {
		sum = 0
	}
	rec.set("trace.blocking_sum_vs_p50_pct", 100*ratio(sum, p50), "%")
}
