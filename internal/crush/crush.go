// Package crush implements rebloc's cluster map and data placement: the
// map of OSDs maintained by the monitor (paper §II-B) and a straw2-style
// weighted rendezvous hash that maps placement groups onto OSDs with
// minimal data movement on membership changes.
package crush

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"rebloc/internal/wire"
)

// ErrNoOSDs is returned when a PG cannot be mapped to enough up OSDs.
var ErrNoOSDs = errors.New("crush: not enough up OSDs")

// OSDInfo describes one OSD in the cluster map.
type OSDInfo struct {
	ID     uint32
	Addr   string
	Up     bool
	Weight float64 // relative capacity; 0 means excluded
}

// Map is the versioned cluster map distributed by the monitor.
//
// A map built with NewMap or Clone is mutable (the monitor edits its own)
// and computes every placement from the straw draws. A map returned by
// Decode is what clients and OSDs install: it is never edited again, so
// Decode computes every PG's acting set once and MapPG/Primary on it are
// an index into that table.
type Map struct {
	Epoch    uint32
	PGCount  uint32 // power of two
	Replicas int
	OSDs     map[uint32]OSDInfo

	// acting is a decoded map's placement table: PG p's acting set is
	// acting[p*Replicas : (p+1)*Replicas]. nil on mutable maps, and on a
	// decoded map that cannot place a PG at all (MapPG then recomputes,
	// and reports the shortfall).
	acting []uint32
}

// maxTableEntries bounds the placement table Decode builds (PGs times
// replicas), so a map whose counts are garbage costs a computation per
// call, not memory.
const maxTableEntries = 1 << 20

// NewMap returns an empty map with the given placement parameters.
func NewMap(pgCount uint32, replicas int) *Map {
	if pgCount == 0 || pgCount&(pgCount-1) != 0 {
		pgCount = nextPow2(pgCount)
	}
	if replicas <= 0 {
		replicas = 2
	}
	return &Map{
		Epoch:    1,
		PGCount:  pgCount,
		Replicas: replicas,
		OSDs:     make(map[uint32]OSDInfo),
	}
}

func nextPow2(v uint32) uint32 {
	if v == 0 {
		return 64
	}
	p := uint32(1)
	for p < v {
		p <<= 1
	}
	return p
}

// Clone deep-copies the map. The copy is mutable: it does not carry the
// placement table of a decoded original.
func (m *Map) Clone() *Map {
	out := &Map{
		Epoch:    m.Epoch,
		PGCount:  m.PGCount,
		Replicas: m.Replicas,
		OSDs:     make(map[uint32]OSDInfo, len(m.OSDs)),
	}
	for id, info := range m.OSDs {
		out.OSDs[id] = info
	}
	return out
}

// PGOf maps an object to its placement group ("logical group").
func (m *Map) PGOf(oid wire.ObjectID) uint32 {
	return uint32(oid.Hash() & uint64(m.PGCount-1))
}

// straw computes a straw2-style draw for (pg, osd): ln(u)/w where u is a
// uniform hash in (0,1]. The OSD with the largest draw wins; weights bias
// the distribution exactly as in CRUSH straw2 buckets.
func straw(pg, osd uint32, weight float64) float64 {
	if weight <= 0 {
		return math.Inf(-1)
	}
	h := mix(uint64(pg)<<32 | uint64(osd))
	// Map to (0, 1]: (h+1) / 2^64.
	u := (float64(h) + 1) / float64(1<<63) / 2
	return math.Log(u) / weight
}

// mix is a 64-bit finaliser (splitmix64).
func mix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// cand is one OSD eligible to hold data, with its draw for the PG being
// placed.
type cand struct {
	id     uint32
	weight float64
	draw   float64
}

// eligible lists the OSDs that can hold data: up, with positive weight.
func (m *Map) eligible() []cand {
	cands := make([]cand, 0, len(m.OSDs))
	for id, info := range m.OSDs {
		if info.Up && info.Weight > 0 {
			cands = append(cands, cand{id: id, weight: info.Weight})
		}
	}
	return cands
}

// place writes pg's acting set into out: the len(out) largest draws among
// cands, ties broken towards the lower id. It reorders cands, which is
// harmless: the result does not depend on their order.
func place(pg uint32, cands []cand, out []uint32) {
	for i := range cands {
		cands[i].draw = straw(pg, cands[i].id, cands[i].weight)
	}
	for i := range out {
		best := i
		for j := i + 1; j < len(cands); j++ {
			if c, b := &cands[j], &cands[best]; c.draw > b.draw || (c.draw == b.draw && c.id < b.id) {
				best = j
			}
		}
		cands[i], cands[best] = cands[best], cands[i]
		out[i] = cands[i].id
	}
}

// buildTable computes the placement of every PG. It leaves the table nil
// when the map cannot be tabulated (no replicas asked for, too few
// eligible OSDs, absurd counts); MapPG then computes per call.
func (m *Map) buildTable() {
	cands := m.eligible()
	if m.Replicas <= 0 || len(cands) < m.Replicas || m.PGCount == 0 ||
		uint64(m.PGCount)*uint64(m.Replicas) > maxTableEntries {
		return
	}
	acting := make([]uint32, int(m.PGCount)*m.Replicas)
	for pg := uint32(0); pg < m.PGCount; pg++ {
		place(pg, cands, acting[int(pg)*m.Replicas:][:m.Replicas])
	}
	m.acting = acting
}

// MapPG returns the acting set for a PG: Replicas distinct up OSDs, the
// first being the primary. It fails with ErrNoOSDs when fewer than
// Replicas OSDs are up. The returned slice may alias the map's placement
// table: callers must not modify it.
func (m *Map) MapPG(pg uint32) ([]uint32, error) {
	if m.acting != nil && pg < m.PGCount {
		lo, hi := int(pg)*m.Replicas, int(pg+1)*m.Replicas
		return m.acting[lo:hi:hi], nil
	}
	cands := m.eligible()
	if len(cands) < m.Replicas {
		return nil, fmt.Errorf("%w: pg %d needs %d, have %d up", ErrNoOSDs, pg, m.Replicas, len(cands))
	}
	out := make([]uint32, m.Replicas)
	place(pg, cands, out)
	return out, nil
}

// Primary returns the primary OSD for a PG.
func (m *Map) Primary(pg uint32) (uint32, error) {
	set, err := m.MapPG(pg)
	if err != nil {
		return 0, err
	}
	return set[0], nil
}

// UpOSDs lists the ids of up OSDs in ascending order.
func (m *Map) UpOSDs() []uint32 {
	out := make([]uint32, 0, len(m.OSDs))
	for id, info := range m.OSDs {
		if info.Up {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Encode serialises the map for MonMap messages.
func (m *Map) Encode() []byte {
	e := wire.NewEncoder(nil)
	e.U32(m.Epoch)
	e.U32(m.PGCount)
	e.U32(uint32(m.Replicas))
	e.U32(uint32(len(m.OSDs)))
	ids := make([]uint32, 0, len(m.OSDs))
	for id := range m.OSDs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		info := m.OSDs[id]
		e.U32(info.ID)
		e.String32(info.Addr)
		e.Bool(info.Up)
		e.U64(math.Float64bits(info.Weight))
	}
	return e.Bytes()
}

// Decode parses an encoded map and builds its placement table. The result
// is meant to be installed and read, not edited: Clone it to change it.
func Decode(buf []byte) (*Map, error) {
	d := wire.NewDecoder(buf)
	m := &Map{
		Epoch:    d.U32(),
		PGCount:  d.U32(),
		Replicas: int(d.U32()),
	}
	n := int(d.U32())
	if n < 0 || n > 1<<20 {
		return nil, fmt.Errorf("crush: absurd OSD count %d", n)
	}
	m.OSDs = make(map[uint32]OSDInfo, n)
	for i := 0; i < n; i++ {
		info := OSDInfo{
			ID:   d.U32(),
			Addr: d.String32(),
			Up:   d.Bool(),
		}
		info.Weight = math.Float64frombits(d.U64())
		m.OSDs[info.ID] = info
	}
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("crush: decode map: %w", err)
	}
	m.buildTable()
	return m, nil
}
