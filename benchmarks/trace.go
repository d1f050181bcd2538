package benchmarks

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"rebloc/internal/device"
	"rebloc/internal/messenger"
	"rebloc/internal/wire"
)

// Seam tracing. Spans are recorded from outside the program, at the two
// public injection points (core.Options.WrapTransport / WrapDevice) and
// around the rbd calls the workers make; spans inside the OSD are a later
// change. Everything is gated by tracer.on, which the traced run flips
// every slice, so one process yields both a wrappers-idle and a traced
// throughput figure (trace.overhead_pct) under identical conditions.

// spanKind names a seam.
type spanKind uint8

const (
	spanClientOp  spanKind = iota + 1 // around rbd.WriteAt / ReadAt
	spanClientRTT                     // ClientWrite/Read send -> Reply, by ReqID
	spanReplRTT                       // Repl / ReplBatch item send -> ReplAck
	spanDevRead                       // Device.ReadAt / ReadAtv
	spanDevWrite                      // Device.WriteAt / WriteAtv
	spanDevFlush                      // Device.Flush
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	spanClientOp:  "client.op",
	spanClientRTT: "msgr.client_rtt",
	spanReplRTT:   "msgr.repl_rtt",
	spanDevRead:   "dev.read",
	spanDevWrite:  "dev.write",
	spanDevFlush:  "dev.flush",
}

// span is one recorded interval. ID is its index+1 in tracer.spans;
// Parent is the span that caused it (0: none known from outside); Op ties
// the spans of one client request together (0: background work).
type span struct {
	Start, End int64 // ns since tracer.epoch; End 0 = never finished
	Op         uint64
	ID, Parent uint32
	Arg        uint32 // bytes moved (dev spans) or 1 for reads (client.op)
	Kind       spanKind
}

const (
	// spanCap pre-sizes the span buffer; spans past it are counted as
	// dropped instead of growing memory mid-run.
	spanCap = 1 << 19
	// traceSample records the span tree of one client op in this many;
	// device spans are never sampled (they are already batched).
	traceSample = 16
	// inflightShards stripes the op-correlation table.
	inflightShards = 64
)

// tracer owns the span buffer, the seam counters and the correlation
// state that links a replication frame back to the client op behind it.
type tracer struct {
	on    atomic.Bool
	epoch time.Time
	n     atomic.Int64
	spans []span
	drops atomic.Int64

	// Seam counters, advanced only while on.
	sends, sendNs atomic.Int64
	wireBytes     atomic.Int64
	devWriteNs    atomic.Int64

	// hdr is the framed size of each hot message type with an empty
	// payload, measured once from the codec so bytes_per_op needs no
	// second encode per frame.
	hdrClientWrite, hdrClientRead, hdrReply, hdrRepl, hdrReplAck int64

	inflight [inflightShards]struct {
		mu sync.Mutex
		m  map[uint64]opRef
	}
}

// opRef points a child span at its parent and client op.
type opRef struct {
	parent uint32
	op     uint64
}

func newTracer(oidNameLen int) *tracer {
	t := &tracer{epoch: time.Now(), spans: make([]span, spanCap)}
	for i := range t.inflight {
		t.inflight[i].m = make(map[uint64]opRef)
	}
	oid := wire.ObjectID{Pool: 1, Name: string(make([]byte, oidNameLen))}
	t.hdrClientWrite = int64(len(wire.Marshal(&wire.ClientWrite{OID: oid})))
	t.hdrClientRead = int64(len(wire.Marshal(&wire.ClientRead{OID: oid})))
	t.hdrReply = int64(len(wire.Marshal(&wire.Reply{})))
	t.hdrRepl = int64(len(wire.Marshal(&wire.Repl{Op: wire.Op{OID: oid}})))
	t.hdrReplAck = int64(len(wire.Marshal(&wire.ReplAck{})))
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin reserves a span and stamps its start; 0 means the buffer is full.
func (t *tracer) begin(kind spanKind, parent uint32, op uint64, arg uint32, start int64) uint32 {
	i := t.n.Add(1)
	if i > spanCap {
		t.drops.Add(1)
		return 0
	}
	t.spans[i-1] = span{Start: start, Op: op, ID: uint32(i), Parent: parent, Arg: arg, Kind: kind}
	return uint32(i)
}

func (t *tracer) end(id uint32, end int64) {
	if id != 0 {
		t.spans[id-1].End = end
	}
}

// recorded returns the filled prefix of the span buffer.
func (t *tracer) recorded() []span {
	n := t.n.Load()
	if n > spanCap {
		n = spanCap
	}
	return t.spans[:n]
}

// opKey hashes (object name, offset): what a ClientWrite and the Repl it
// causes have in common.
func opKey(name string, off uint64) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * 0x100000001b3
	}
	for i := 0; i < 8; i++ {
		h = (h ^ (off & 0xff)) * 0x100000001b3
		off >>= 8
	}
	return h
}

func (t *tracer) putInflight(key uint64, ref opRef) {
	s := &t.inflight[key%inflightShards]
	s.mu.Lock()
	s.m[key] = ref
	s.mu.Unlock()
}

func (t *tracer) getInflight(key uint64) (opRef, bool) {
	s := &t.inflight[key%inflightShards]
	s.mu.Lock()
	ref, ok := s.m[key]
	s.mu.Unlock()
	return ref, ok
}

func (t *tracer) delInflight(key uint64) {
	s := &t.inflight[key%inflightShards]
	s.mu.Lock()
	delete(s.m, key)
	s.mu.Unlock()
}

// --- client side: root spans and their messenger child ---

// clientTag is the tracing state of one benchmark client: its in-flight
// root spans, so the ClientWrite/ClientRead frame each one sends can be
// attached to it. Go has no goroutine identity, so the frame is matched to
// the oldest unmatched root with the same (class, object, offset).
type clientTag struct {
	t     *tracer
	mu    sync.Mutex
	slots []rootSlot
	pend  map[uint64]pendRTT // ReqID -> open msgr.client_rtt span
	npend atomic.Int32
}

type rootSlot struct {
	active, matched bool
	read            bool
	obj, inObj      uint64
	id              uint32
	op              uint64
	start           int64
}

type pendRTT struct {
	id   uint32
	slot int
	key  uint64 // inflight-table key (writes only; 0 for reads)
}

func (t *tracer) newClientTag(inflight int) *clientTag {
	return &clientTag{t: t, slots: make([]rootSlot, inflight), pend: make(map[uint64]pendRTT)}
}

// beginOp opens the root span of one sampled client op.
func (ct *clientTag) beginOp(slot int, read bool, obj, inObj uint64, op uint64, start int64) uint32 {
	arg := uint32(0)
	if read {
		arg = 1
	}
	id := ct.t.begin(spanClientOp, 0, op, arg, start)
	if id == 0 {
		return 0
	}
	ct.mu.Lock()
	ct.slots[slot] = rootSlot{active: true, read: read, obj: obj, inObj: inObj, id: id, op: op, start: start}
	ct.mu.Unlock()
	return id
}

func (ct *clientTag) endOp(slot int, id uint32, end int64) {
	if id == 0 {
		return
	}
	ct.mu.Lock()
	ct.slots[slot].active = false
	ct.mu.Unlock()
	ct.t.end(id, end)
}

// objIndex parses the object index rbd encodes as the name's trailing
// 16 hex digits ("rbd_data.<image>.<%016x>").
func objIndex(name string) (uint64, bool) {
	if len(name) < 17 || name[len(name)-17] != '.' {
		return 0, false
	}
	var v uint64
	for _, c := range []byte(name[len(name)-16:]) {
		switch {
		case c >= '0' && c <= '9':
			v = v<<4 | uint64(c-'0')
		case c >= 'a' && c <= 'f':
			v = v<<4 | uint64(c-'a'+10)
		default:
			return 0, false
		}
	}
	return v, true
}

// onRequest attaches an outgoing ClientWrite/ClientRead to its root span.
func (ct *clientTag) onRequest(reqID uint64, read bool, oid *wire.ObjectID, off uint64, now int64) {
	obj, ok := objIndex(oid.Name)
	if !ok {
		return
	}
	ct.mu.Lock()
	best := -1
	for i := range ct.slots {
		s := &ct.slots[i]
		if s.active && !s.matched && s.read == read && s.obj == obj && s.inObj == off &&
			(best < 0 || s.start < ct.slots[best].start) {
			best = i
		}
	}
	if best < 0 {
		ct.mu.Unlock()
		return
	}
	s := &ct.slots[best]
	id := ct.t.begin(spanClientRTT, s.id, s.op, 0, now)
	if id == 0 {
		ct.mu.Unlock()
		return
	}
	s.matched = true
	p := pendRTT{id: id, slot: best}
	if !read {
		p.key = opKey(oid.Name, off)
		ct.t.putInflight(p.key, opRef{parent: id, op: s.op})
	}
	ct.pend[reqID] = p
	ct.npend.Add(1)
	ct.mu.Unlock()
}

// onReply closes the msgr.client_rtt span of reqID, if one is open. retry
// says the client will send the op again (a retryable status): only then
// may a later request match the same root.
func (ct *clientTag) onReply(reqID uint64, retry bool) {
	if ct.npend.Load() == 0 {
		return
	}
	ct.mu.Lock()
	p, ok := ct.pend[reqID]
	if ok {
		delete(ct.pend, reqID)
		ct.npend.Add(-1)
		ct.slots[p.slot].matched = !retry
	}
	ct.mu.Unlock()
	if ok {
		ct.t.end(p.id, ct.t.now())
		if p.key != 0 {
			ct.t.delInflight(p.key)
		}
	}
}

// --- transport seam ---

type traceTransport struct {
	inner messenger.Transport
	t     *tracer
}

func (t *tracer) wrapTransport(inner messenger.Transport) messenger.Transport {
	return &traceTransport{inner: inner, t: t}
}

func (tt *traceTransport) Listen(addr string) (messenger.Listener, error) {
	ln, err := tt.inner.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &traceListener{Listener: ln, t: tt.t}, nil
}

func (tt *traceTransport) Dial(addr string) (messenger.Conn, error) {
	c, err := tt.inner.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &traceConn{Conn: c, t: tt.t}, nil
}

type traceListener struct {
	messenger.Listener
	t *tracer
}

func (l *traceListener) Accept() (messenger.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &traceConn{Conn: c, t: l.t}, nil
}

// clientTransport is what one benchmark client dials through: the
// cluster's (already wrapped) transport, with every conn it opens tagged
// as that client's.
type clientTransport struct {
	inner messenger.Transport
	tag   *clientTag
}

func (ct *clientTransport) Listen(addr string) (messenger.Listener, error) {
	return ct.inner.Listen(addr)
}

func (ct *clientTransport) Dial(addr string) (messenger.Conn, error) {
	c, err := ct.inner.Dial(addr)
	if err != nil {
		return nil, err
	}
	if tc, ok := c.(*traceConn); ok {
		tc.client = ct.tag
	}
	return c, nil
}

// traceConn is the messenger seam: it times Send, sizes frames, and opens
// and closes the request/reply spans it can pair by ReqID.
type traceConn struct {
	messenger.Conn
	t      *tracer
	client *clientTag // non-nil on a benchmark client's conns

	mu    sync.Mutex
	repl  map[uint64]uint32 // Repl ReqID -> open msgr.repl_rtt span
	nrepl atomic.Int32
}

func (c *traceConn) Send(m wire.Message) error {
	t := c.t
	if !t.on.Load() {
		return c.Conn.Send(m)
	}
	start := t.now()
	var bytes int64
	switch m := m.(type) {
	case *wire.ClientWrite:
		bytes = t.hdrClientWrite + int64(len(m.Data))
		if c.client != nil {
			c.client.onRequest(m.ReqID, false, &m.OID, m.Offset, start)
		}
	case *wire.ClientRead:
		bytes = t.hdrClientRead
		if c.client != nil {
			c.client.onRequest(m.ReqID, true, &m.OID, m.Offset, start)
		}
	case *wire.Reply:
		bytes = t.hdrReply + int64(len(m.Data))
		if m.DataSegs != nil {
			bytes = t.hdrReply + int64(m.DataLen)
		}
	case *wire.Repl:
		bytes = t.hdrRepl + int64(len(m.Op.Data))
		c.openRepl(m, start)
	case *wire.ReplBatch:
		for i := range m.Items {
			bytes += t.hdrRepl + int64(len(m.Items[i].Op.Data))
			c.openRepl(&m.Items[i], start)
		}
	case *wire.ReplAck:
		bytes = t.hdrReplAck
	}
	err := c.Conn.Send(m)
	t.sendNs.Add(t.now() - start)
	t.sends.Add(1)
	t.wireBytes.Add(bytes)
	return err
}

// openRepl starts the replication round-trip span of one mutation when
// the client op behind it is being traced.
func (c *traceConn) openRepl(r *wire.Repl, start int64) {
	ref, ok := c.t.getInflight(opKey(r.Op.OID.Name, r.Op.Offset))
	if !ok {
		return
	}
	id := c.t.begin(spanReplRTT, ref.parent, ref.op, 0, start)
	if id == 0 {
		return
	}
	c.mu.Lock()
	if c.repl == nil {
		c.repl = make(map[uint64]uint32)
	}
	c.repl[r.ReqID] = id
	c.mu.Unlock()
	c.nrepl.Add(1)
}

func (c *traceConn) Recv() (wire.Message, error) {
	m, err := c.Conn.Recv()
	if err != nil {
		return m, err
	}
	switch m := m.(type) {
	case *wire.Reply:
		if c.client != nil {
			retry := m.Status == wire.StatusAgain || m.Status == wire.StatusStaleEpoch || m.Status == wire.StatusNotPrimary
			c.client.onReply(m.ReqID, retry)
		}
	case *wire.ReplAck:
		if c.nrepl.Load() > 0 {
			c.mu.Lock()
			id, ok := c.repl[m.ReqID]
			if ok {
				delete(c.repl, m.ReqID)
			}
			c.mu.Unlock()
			if ok {
				c.nrepl.Add(-1)
				c.t.end(id, c.t.now())
			}
		}
	}
	return m, nil
}

// --- device seam ---

type traceDev struct {
	device.Device
	t *tracer
}

func (t *tracer) wrapDevice(_ int, d device.Device) device.Device {
	return &traceDev{Device: d, t: t}
}

func vecBytes(vecs []device.IOVec) uint32 {
	n := 0
	for i := range vecs {
		n += len(vecs[i].Data)
	}
	return uint32(n)
}

func (d *traceDev) ReadAt(p []byte, off int64) (int, error) {
	if !d.t.on.Load() {
		return d.Device.ReadAt(p, off)
	}
	id := d.t.begin(spanDevRead, 0, 0, uint32(len(p)), d.t.now())
	n, err := d.Device.ReadAt(p, off)
	d.t.end(id, d.t.now())
	return n, err
}

func (d *traceDev) ReadAtv(vecs []device.IOVec) (int, error) {
	if !d.t.on.Load() {
		return d.Device.ReadAtv(vecs)
	}
	id := d.t.begin(spanDevRead, 0, 0, vecBytes(vecs), d.t.now())
	n, err := d.Device.ReadAtv(vecs)
	d.t.end(id, d.t.now())
	return n, err
}

func (d *traceDev) WriteAt(p []byte, off int64) (int, error) {
	if !d.t.on.Load() {
		return d.Device.WriteAt(p, off)
	}
	start := d.t.now()
	id := d.t.begin(spanDevWrite, 0, 0, uint32(len(p)), start)
	n, err := d.Device.WriteAt(p, off)
	end := d.t.now()
	d.t.end(id, end)
	d.t.devWriteNs.Add(end - start)
	return n, err
}

func (d *traceDev) WriteAtv(vecs []device.IOVec) (int, error) {
	if !d.t.on.Load() {
		return d.Device.WriteAtv(vecs)
	}
	start := d.t.now()
	id := d.t.begin(spanDevWrite, 0, 0, vecBytes(vecs), start)
	n, err := d.Device.WriteAtv(vecs)
	end := d.t.now()
	d.t.end(id, end)
	d.t.devWriteNs.Add(end - start)
	return n, err
}

func (d *traceDev) Flush() error {
	if !d.t.on.Load() {
		return d.Device.Flush()
	}
	id := d.t.begin(spanDevFlush, 0, 0, 0, d.t.now())
	err := d.Device.Flush()
	d.t.end(id, d.t.now())
	return err
}

// --- span file ---

// writeFile dumps the recorded spans as compact JSON rows. Times are ns
// since the tracer's epoch; see benchmarks/README.md for how to read it.
func (t *tracer) writeFile(path, workload string, seed int64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintf(w, `{"workload":%q,"seed":%d,"epoch_unix_ns":%d,"sample_one_op_in":%d,"dropped":%d,`,
		workload, seed, t.epoch.UnixNano(), traceSample, t.drops.Load())
	w.WriteString(`"kinds":[`)
	for k := spanKind(1); k < numSpanKinds; k++ {
		if k > 1 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "%q", spanNames[k])
	}
	w.WriteString(`],"columns":["kind","start_ns","end_ns","id","parent","op","arg"],"spans":[`)
	var row []byte
	for i, s := range t.recorded() {
		row = row[:0]
		if i > 0 {
			row = append(row, ',')
		}
		row = append(row, '\n', '[')
		row = strconv.AppendInt(row, int64(s.Kind-1), 10)
		row = append(row, ',')
		row = strconv.AppendInt(row, s.Start, 10)
		row = append(row, ',')
		row = strconv.AppendInt(row, s.End, 10)
		row = append(row, ',')
		row = strconv.AppendUint(row, uint64(s.ID), 10)
		row = append(row, ',')
		row = strconv.AppendUint(row, uint64(s.Parent), 10)
		row = append(row, ',')
		row = strconv.AppendUint(row, s.Op, 10)
		row = append(row, ',')
		row = strconv.AppendUint(row, uint64(s.Arg), 10)
		row = append(row, ']')
		w.Write(row)
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
