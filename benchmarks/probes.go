package benchmarks

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"time"

	"rebloc/internal/device"
	"rebloc/internal/messenger"
	"rebloc/internal/nvm"
	"rebloc/internal/oplog"
	"rebloc/internal/readcache"
	"rebloc/internal/store"
	"rebloc/internal/store/cos"
	"rebloc/internal/wire"
)

// Layer probes: the first probeOps ops of the workload's own measured
// stream (client 0, slot 0) are replayed straight into one layer's public
// API, with nothing else running, and each call is timed. A probe answers
// "what does this layer cost alone on these addresses", the number the
// end-to-end figure is reconciled against; a read-only workload still
// drives the write-side probes with its addresses, and vice versa, since
// a probe needs locality, not op class.
const (
	probeOps = 4096
	// probeChunk calls are timed together so the clock reads do not
	// dominate calls of a few hundred ns; a probe reports the median
	// per-call time over its chunks.
	probeChunk = 64
	// echoRounds is the number of round trips of the messenger echo probe.
	echoRounds = 3000
	// cosBatch is the store ops in one probed Submit, the size of a
	// coalesced drain under load.
	cosBatch = 64
)

type probeOp struct {
	oid   wire.ObjectID
	pg    uint32
	inObj uint64
	read  bool
}

func (e *env) probeStream() []probeOp {
	st := e.gen.Stream(0, 0, phaseMeasure)
	ops := make([]probeOp, probeOps)
	names := map[uint64]string{}
	for i := range ops {
		op := st.Next()
		off := uint64(op.Block) * BlockBytes
		obj := off / objectBytes
		name, ok := names[obj]
		if !ok {
			name = fmt.Sprintf("rbd_data.%s.%016x", imageName(0), obj)
			names[obj] = name
		}
		ops[i] = probeOp{
			oid:   wire.ObjectID{Pool: 1, Name: name},
			pg:    uint32(obj % clusterPGs),
			inObj: off % objectBytes,
			read:  op.Read,
		}
	}
	return ops
}

// perCall times fn over chunks of probeChunk calls and returns the median
// ns per call.
func perCall(n int, fn func(i int)) float64 {
	var per []float64
	for lo := 0; lo+probeChunk <= n; lo += probeChunk {
		t0 := time.Now()
		for i := lo; i < lo+probeChunk; i++ {
			fn(i)
		}
		per = append(per, float64(time.Since(t0))/probeChunk)
	}
	return median(per)
}

// probes runs every layer probe and records its metrics.
func (e *env) probes(rec *Record) error {
	ops := e.probeStream()
	data := make([]byte, BlockBytes)
	fillNoise(data, 7)
	if err := probeEcho(rec, ops, data); err != nil {
		return fmt.Errorf("msgr echo: %w", err)
	}
	if err := probeWire(rec, ops, data); err != nil {
		return fmt.Errorf("wire: %w", err)
	}
	if err := probeOplog(rec, ops, data); err != nil {
		return fmt.Errorf("oplog: %w", err)
	}
	if err := probeReadCache(rec, ops, data); err != nil {
		return fmt.Errorf("rcache: %w", err)
	}
	if err := probeCOS(rec, ops, data); err != nil {
		return fmt.Errorf("cos: %w", err)
	}
	return nil
}

// probeEcho: a 4 KiB ClientWrite answered by a bare Reply, with no OSD
// behind it — the messenger and wire cost of one client hop. It runs over
// the in-process transport the workloads use and over loopback TCP, the
// transport the daemons ship with.
func probeEcho(rec *Record, ops []probeOp, data []byte) error {
	in := messenger.NewInProc()
	in.Stats = &messenger.Stats{}
	ns, err := echoP50(in, "echo.0", ops, data)
	if err != nil {
		return err
	}
	rec.set("msgr.echo4k_ns", ns, "ns")
	ns, err = echoP50(messenger.TCP{Stats: &messenger.Stats{}}, "127.0.0.1:0", ops, data)
	if err != nil {
		return err
	}
	rec.set("msgr.echo4k_tcp_ns", ns, "ns")
	return nil
}

// echoP50 returns the median round trip over tr, in ns.
func echoP50(tr messenger.Transport, addr string, ops []probeOp, data []byte) (float64, error) {
	ln, err := tr.Listen(addr)
	if err != nil {
		return 0, err
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		for {
			m, err := conn.Recv()
			if err != nil {
				return
			}
			if w, ok := m.(*wire.ClientWrite); ok {
				if conn.Send(&wire.Reply{ReqID: w.ReqID, Status: wire.StatusOK}) != nil {
					return
				}
			}
		}
	}()
	conn, err := tr.Dial(ln.Addr())
	if err != nil {
		ln.Close()
		<-served
		return 0, err
	}
	lat := make([]int64, 0, echoRounds)
	for i := 0; i < echoRounds; i++ {
		op := &ops[i%len(ops)]
		t0 := time.Now()
		if err = conn.Send(&wire.ClientWrite{ReqID: uint64(i + 1), Epoch: 1, OID: op.oid, Offset: op.inObj, Data: data}); err != nil {
			break
		}
		if _, err = conn.Recv(); err != nil {
			break
		}
		lat = append(lat, int64(time.Since(t0)))
	}
	conn.Close()
	ln.Close()
	<-served
	if err != nil {
		return 0, err
	}
	slices.Sort(lat)
	return float64(quantile(lat, 0.50)), nil
}

// probeWire: frame encode and decode of the workload's own requests.
func probeWire(rec *Record, ops []probeOp, data []byte) error {
	msgs := make([]wire.Message, len(ops))
	for i := range ops {
		if ops[i].read {
			msgs[i] = &wire.ClientRead{ReqID: uint64(i), Epoch: 1, OID: ops[i].oid, Offset: ops[i].inObj, Length: BlockBytes}
		} else {
			msgs[i] = &wire.ClientWrite{ReqID: uint64(i), Epoch: 1, OID: ops[i].oid, Offset: ops[i].inObj, Data: data}
		}
	}
	frames := make([][]byte, len(ops))
	for i := range frames {
		frames[i] = wire.AppendFrame(nil, msgs[i])
	}
	var decErr error
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	enc := perCall(len(ops), func(i int) { frames[i] = wire.AppendFrame(frames[i], msgs[i]) })
	dec := perCall(len(ops), func(i int) {
		if _, err := wire.Unmarshal(frames[i]); err != nil {
			decErr = err
		}
	})
	runtime.ReadMemStats(&ms1)
	if decErr != nil {
		return decErr
	}
	rec.set("wire.encode_ns_per_frame", enc, "ns")
	rec.set("wire.decode_ns_per_frame", dec, "ns")
	rec.set("wire.allocs_per_frame", float64(ms1.Mallocs-ms0.Mallocs)/float64(len(ops)), "1/frame")
	return nil
}

// probeOplog: the NVM log alone — single appends, 8-op batch appends,
// read-your-writes lookups of staged blocks, and the bottom half's
// TakeBatch -> Coalescer -> Complete pass (without a store behind it).
func probeOplog(rec *Record, ops []probeOp, data []byte) error {
	const regionBytes = 2 << 20 // the OSD's default per-PG region
	bank := nvm.NewBank(regionBytes + 4096)
	region, err := bank.Carve("probe.oplog", regionBytes)
	if err != nil {
		return err
	}
	log, err := oplog.New(1, region, 16)
	if err != nil {
		return err
	}
	defer log.Close()
	var seq uint64
	mkOp := func(p *probeOp) wire.Op {
		seq++
		return wire.Op{Kind: wire.OpWrite, OID: p.oid, Offset: p.inObj, Length: BlockBytes, Version: seq, Seq: seq, Data: data}
	}
	var coal oplog.Coalescer
	var drainPer []float64
	drain := func() error {
		t0 := time.Now()
		batch := log.TakeBatch(0)
		coal.Reset()
		for _, ent := range batch {
			coal.Add(ent)
		}
		_ = coal.Emit()
		n := len(batch)
		if err := log.Complete(batch); err != nil {
			return err
		}
		if n > 0 {
			drainPer = append(drainPer, float64(time.Since(t0))/float64(n))
		}
		return nil
	}

	var appendPer, lookupPer, batchPer []float64
	var probeErr error
	for lo := 0; lo+probeChunk <= len(ops); lo += probeChunk {
		chunk := ops[lo : lo+probeChunk]
		t0 := time.Now()
		for i := range chunk {
			if _, err := log.Append(mkOp(&chunk[i])); err != nil {
				return err
			}
		}
		appendPer = append(appendPer, float64(time.Since(t0))/probeChunk)

		t0 = time.Now()
		for i := range chunk {
			v, ok, _ := log.LookupReadView(chunk[i].oid, chunk[i].inObj, BlockBytes)
			if !ok {
				probeErr = fmt.Errorf("staged block not found at %s+%d", chunk[i].oid.Name, chunk[i].inObj)
			}
			v.Release()
		}
		lookupPer = append(lookupPer, float64(time.Since(t0))/probeChunk)
		if err := drain(); err != nil {
			return err
		}

		batch := make([]wire.Op, 8)
		t0 = time.Now()
		for i := 0; i+8 <= len(chunk); i += 8 {
			for j := range batch {
				batch[j] = mkOp(&chunk[i+j])
			}
			if _, err := log.AppendBatch(batch); err != nil {
				return err
			}
		}
		batchPer = append(batchPer, float64(time.Since(t0))/probeChunk)
		if err := drain(); err != nil {
			return err
		}
	}
	if probeErr != nil {
		return probeErr
	}
	rec.set("oplog.append_ns", median(appendPer), "ns")
	rec.set("oplog.append_batch8_ns_per_op", median(batchPer), "ns")
	rec.set("oplog.lookup_ns", median(lookupPer), "ns")
	rec.set("oplog.drain_ns_per_entry", median(drainPer), "ns")
	return nil
}

// probeReadCache: admission of a filled block and the hit path, on a
// cache the size of one OSD's default.
func probeReadCache(rec *Record, ops []probeOp, data []byte) error {
	const cacheBytes = 8 << 20
	bank := nvm.NewBank(cacheBytes + 4096)
	region, err := bank.Carve("probe.rcache", cacheBytes)
	if err != nil {
		return err
	}
	rc, err := readcache.New(region, readcache.Options{})
	if err != nil {
		return err
	}
	misses := 0
	var admitPer, hitPer []float64
	for lo := 0; lo+probeChunk <= len(ops); lo += probeChunk {
		chunk := ops[lo : lo+probeChunk]
		t0 := time.Now()
		for i := range chunk {
			p := &chunk[i]
			rc.AdmitFill(p.pg, rc.FillGen(p.pg), p.oid, p.inObj, data)
		}
		admitPer = append(admitPer, float64(time.Since(t0))/probeChunk)
		t0 = time.Now()
		for i := range chunk {
			p := &chunk[i]
			if v, ok := rc.Lookup(p.pg, p.oid, p.inObj, BlockBytes); ok {
				v.Release()
			} else {
				misses++
			}
		}
		hitPer = append(hitPer, float64(time.Since(t0))/probeChunk)
	}
	if misses > len(ops)/2 {
		return fmt.Errorf("%d of %d just-admitted blocks missed", misses, len(ops))
	}
	rec.set("rcache.admit_ns", median(admitPer), "ns")
	rec.set("rcache.lookup_hit_ns", median(hitPer), "ns")
	return nil
}

// probeCOS: the store alone on a RAM device, configured as the OSD
// configures it — one batched Submit of drain-sized 4 KiB writes, and
// verified 4 KiB reads.
func probeCOS(rec *Record, ops []probeOp, data []byte) error {
	dev := device.NewMem(512 << 20)
	co := cos.DefaultOptions()
	co.PreallocBytes = objectBytes
	co.Bank = nvm.NewBank(32 << 20)
	co.MDCache = true
	co.RegionName = "probe.cos"
	st, err := cos.Open(dev, co)
	if err != nil {
		return err
	}
	defer st.Close()

	// First touch pre-allocates and zero-fills the object: image creation
	// pays that, not the write path, so it stays outside the timing.
	seen := map[string]bool{}
	var objs []probeOp
	for i := range ops {
		if !seen[ops[i].oid.Name] {
			seen[ops[i].oid.Name] = true
			objs = append(objs, ops[i])
		}
	}
	slices.SortFunc(objs, func(a, b probeOp) int { return strings.Compare(a.oid.Name, b.oid.Name) })
	for i := range objs {
		var txn store.Transaction
		txn.AddWrite(objs[i].pg, objs[i].oid, 0, data)
		if err := st.Submit(&txn); err != nil {
			return err
		}
	}

	var submitPer []float64
	for lo := 0; lo+cosBatch <= len(ops); lo += cosBatch {
		var txn store.Transaction
		for i := lo; i < lo+cosBatch; i++ {
			txn.AddWrite(ops[i].pg, ops[i].oid, ops[i].inObj, data)
		}
		t0 := time.Now()
		if err := st.Submit(&txn); err != nil {
			return err
		}
		submitPer = append(submitPer, float64(time.Since(t0))/cosBatch)
	}
	out := make([]byte, BlockBytes)
	var readErr error
	read := perCall(len(ops), func(i int) {
		if err := st.ReadInto(ops[i].pg, ops[i].oid, ops[i].inObj, out); err != nil {
			readErr = err
		}
	})
	if readErr != nil {
		return readErr
	}
	rec.set("cos.submit_ns_per_write", median(submitPer), "ns")
	rec.set("cos.read_ns", read, "ns")
	return nil
}
