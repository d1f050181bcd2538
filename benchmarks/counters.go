package benchmarks

import (
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"

	"rebloc/internal/device"
	rmetrics "rebloc/internal/metrics"
	"rebloc/internal/oplog"
	"rebloc/internal/wire"
)

// counters is one reading of every counter the per-layer metrics are
// built from. All of it comes through accessors the program already
// exports; the window's figures are the difference of two readings.
type counters struct {
	// osd.* (summed over OSDs)
	replBatchFrames, replBatchedOps             int64
	flushBatches, flushedEntries, flushStoreOps int64
	forcedFlush                                 int64
	throttleDelays, throttleRejects, laggyNacks int64
	cksumReadErrors                             int64
	busyPT, busyNPT                             time.Duration

	oplog oplog.StatsSnapshot

	// rcache.*
	rcHits, rcMisses, rcEvictions, rcInvalidations, rcFillAborts int64
	rcOccupied, rcSlots                                          int64

	dev device.Snapshot

	nvmOps, nvmBytes int64

	// msgr.* / wire.*
	sends              int64
	poolGets, poolHits uint64

	// rt.*
	mallocs   uint64
	gcCPU     float64 // cumulative GC CPU seconds
	totalCPU  float64 // cumulative CPU seconds available to the process
	processNs int64   // getrusage user+sys
}

func (e *env) readCounters() counters {
	var k counters
	c := e.c
	for i := 0; i < c.OSDs(); i++ {
		o := c.OSD(i)
		if o == nil {
			continue
		}
		k.replBatchFrames += o.ReplBatchFrames.Load()
		k.replBatchedOps += o.ReplBatchedOps.Load()
		k.flushBatches += o.FlushBatches.Load()
		k.flushedEntries += o.FlushedEntries.Load()
		k.flushStoreOps += o.FlushStoreOps.Load()
		k.forcedFlush += o.ForcedFlush.Load()
		k.throttleDelays += o.ThrottleDelays.Load()
		k.throttleRejects += o.ThrottleRejects.Load()
		k.laggyNacks += o.LaggyNacks.Load()
		k.cksumReadErrors += o.CksumReadErrors.Load()
		k.oplog = k.oplog.Add(o.OplogSnapshot())
		if rc := o.ReadCache(); rc != nil {
			st := rc.Stats()
			k.rcHits += st.Hits.Load()
			k.rcMisses += st.Misses.Load()
			k.rcEvictions += st.Evictions.Load()
			k.rcInvalidations += st.Invalidations.Load()
			k.rcFillAborts += st.FillAborts.Load()
			k.rcOccupied += rc.Occupancy()
			k.rcSlots += int64(rc.Slots())
		}
		ops, bytes := c.Bank(i).PersistStats()
		k.nvmOps += ops
		k.nvmBytes += bytes
	}
	for _, a := range c.Accounts() {
		if a != nil {
			k.busyPT += a.Busy(rmetrics.CatPT)
			k.busyNPT += a.Busy(rmetrics.CatNPT)
		}
	}
	for _, d := range c.DeviceSnapshots() {
		k.dev.ReadOps += d.ReadOps
		k.dev.WriteOps += d.WriteOps
		k.dev.BytesRead += d.BytesRead
		k.dev.BytesWritten += d.BytesWritten
		k.dev.Flushes += d.Flushes
		k.dev.VecOps += d.VecOps
		k.dev.VecSegs += d.VecSegs
	}
	k.sends = c.MessengerStats().Sends.Load()
	ps := wire.FramePoolStats()
	k.poolGets, k.poolHits = ps.Gets, ps.Hits

	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	k.mallocs = m.Mallocs
	k.gcCPU, k.totalCPU = gcCPUSeconds()
	k.processNs = processCPU()
	return k
}

// maxOccupancy is the fullest PG log across the cluster right now.
func (e *env) maxOccupancy() float64 {
	var max float64
	for i := 0; i < e.c.OSDs(); i++ {
		if o := e.c.OSD(i); o != nil {
			if occ := o.MaxOccupancy(); occ > max {
				max = occ
			}
		}
	}
	return max
}

func gcCPUSeconds() (gc, total float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 {
		gc = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		total = s[1].Value.Float64()
	}
	return gc, total
}

// processCPU returns the process's user+system CPU time in ns.
func processCPU() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// peakRSSMiB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
