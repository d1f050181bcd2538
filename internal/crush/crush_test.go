package crush

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"rebloc/internal/wire"
)

func clusterMap(nOSDs int, replicas int) *Map {
	m := NewMap(128, replicas)
	for i := 0; i < nOSDs; i++ {
		m.OSDs[uint32(i)] = OSDInfo{ID: uint32(i), Addr: fmt.Sprintf("127.0.0.1:%d", 7000+i), Up: true, Weight: 1}
	}
	return m
}

func TestMapPGDeterministicAndDistinct(t *testing.T) {
	m := clusterMap(8, 2)
	for pg := uint32(0); pg < m.PGCount; pg++ {
		set1, err := m.MapPG(pg)
		if err != nil {
			t.Fatal(err)
		}
		set2, err := m.MapPG(pg)
		if err != nil {
			t.Fatal(err)
		}
		if len(set1) != 2 || set1[0] == set1[1] {
			t.Fatalf("pg %d: acting set %v", pg, set1)
		}
		if set1[0] != set2[0] || set1[1] != set2[1] {
			t.Fatalf("pg %d: mapping not deterministic", pg)
		}
	}
}

func TestMapPGBalance(t *testing.T) {
	m := clusterMap(8, 2)
	counts := make(map[uint32]int)
	for pg := uint32(0); pg < m.PGCount; pg++ {
		set, err := m.MapPG(pg)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range set {
			counts[id]++
		}
	}
	// 128 PGs * 2 replicas / 8 OSDs = 32 expected each; allow 2.5x spread.
	for id, c := range counts {
		if c < 12 || c > 80 {
			t.Fatalf("osd %d has %d PGs, severely unbalanced", id, c)
		}
	}
}

func TestMapPGStabilityOnFailure(t *testing.T) {
	m := clusterMap(8, 2)
	before := make(map[uint32][]uint32)
	for pg := uint32(0); pg < m.PGCount; pg++ {
		set, _ := m.MapPG(pg)
		before[pg] = set
	}
	// Mark osd 3 down.
	down := m.Clone()
	info := down.OSDs[3]
	info.Up = false
	down.OSDs[3] = info
	moved := 0
	for pg := uint32(0); pg < m.PGCount; pg++ {
		after, err := down.MapPG(pg)
		if err != nil {
			t.Fatal(err)
		}
		usedFailed := before[pg][0] == 3 || before[pg][1] == 3
		if !usedFailed {
			// PGs not touching the failed OSD must not move (rendezvous
			// stability).
			if after[0] != before[pg][0] || after[1] != before[pg][1] {
				t.Fatalf("pg %d moved without touching failed OSD: %v -> %v", pg, before[pg], after)
			}
		} else {
			moved++
			for _, id := range after {
				if id == 3 {
					t.Fatalf("pg %d still mapped to down OSD", pg)
				}
			}
		}
	}
	if moved == 0 {
		t.Fatal("no PG used osd 3; test is vacuous")
	}
}

func TestWeightBias(t *testing.T) {
	m := NewMap(1024, 1)
	m.OSDs[0] = OSDInfo{ID: 0, Up: true, Weight: 1}
	m.OSDs[1] = OSDInfo{ID: 1, Up: true, Weight: 3}
	counts := map[uint32]int{}
	for pg := uint32(0); pg < m.PGCount; pg++ {
		set, err := m.MapPG(pg)
		if err != nil {
			t.Fatal(err)
		}
		counts[set[0]]++
	}
	ratio := float64(counts[1]) / float64(counts[0])
	if ratio < 2.0 || ratio > 4.5 {
		t.Fatalf("weight-3 OSD got ratio %.2f, want ~3", ratio)
	}
}

func TestNotEnoughOSDs(t *testing.T) {
	m := clusterMap(1, 2)
	if _, err := m.MapPG(0); !errors.Is(err, ErrNoOSDs) {
		t.Fatalf("err = %v", err)
	}
	if _, err := m.Primary(0); !errors.Is(err, ErrNoOSDs) {
		t.Fatalf("err = %v", err)
	}
}

func TestPGOfInRange(t *testing.T) {
	m := clusterMap(4, 2)
	f := func(pool uint32, name string) bool {
		pg := m.PGOf(wire.ObjectID{Pool: pool, Name: name})
		return pg < m.PGCount
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	m := clusterMap(5, 3)
	m.Epoch = 42
	info := m.OSDs[2]
	info.Up = false
	info.Weight = 2.5
	m.OSDs[2] = info
	got, err := Decode(m.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != 42 || got.PGCount != m.PGCount || got.Replicas != 3 {
		t.Fatalf("header mismatch: %+v", got)
	}
	if len(got.OSDs) != 5 {
		t.Fatalf("OSDs = %d", len(got.OSDs))
	}
	if got.OSDs[2].Up || got.OSDs[2].Weight != 2.5 || got.OSDs[2].Addr != m.OSDs[2].Addr {
		t.Fatalf("osd 2 mismatch: %+v", got.OSDs[2])
	}
	// Same mappings after decode.
	for pg := uint32(0); pg < 16; pg++ {
		a, err1 := m.MapPG(pg)
		b, err2 := got.MapPG(pg)
		if (err1 == nil) != (err2 == nil) {
			t.Fatal("mapping error mismatch")
		}
		if err1 == nil && (a[0] != b[0] || a[1] != b[1]) {
			t.Fatalf("pg %d maps differently after decode", pg)
		}
	}
}

func TestDecodeGarbage(t *testing.T) {
	if _, err := Decode([]byte{1, 2, 3}); err == nil {
		t.Fatal("garbage must not decode")
	}
}

func TestNewMapNormalisesPGCount(t *testing.T) {
	m := NewMap(100, 0)
	if m.PGCount != 128 {
		t.Fatalf("PGCount = %d, want 128", m.PGCount)
	}
	if m.Replicas != 2 {
		t.Fatalf("Replicas = %d, want default 2", m.Replicas)
	}
	m2 := NewMap(0, 3)
	if m2.PGCount != 64 {
		t.Fatalf("PGCount = %d, want 64", m2.PGCount)
	}
}

func TestUpOSDs(t *testing.T) {
	m := clusterMap(4, 2)
	info := m.OSDs[1]
	info.Up = false
	m.OSDs[1] = info
	up := m.UpOSDs()
	if len(up) != 3 || up[0] != 0 || up[1] != 2 || up[2] != 3 {
		t.Fatalf("UpOSDs = %v", up)
	}
}

func TestCloneIsDeep(t *testing.T) {
	m := clusterMap(2, 2)
	c := m.Clone()
	info := c.OSDs[0]
	info.Up = false
	c.OSDs[0] = info
	if !m.OSDs[0].Up {
		t.Fatal("Clone shares OSD map")
	}
}

func TestStrawZeroWeight(t *testing.T) {
	if !math.IsInf(straw(1, 1, 0), -1) {
		t.Fatal("zero weight must never win")
	}
}

// referenceMapPG is the placement rule written the slow, obvious way:
// every eligible OSD draws, the draws are sorted (largest first, lower id
// on a tie) and the first Replicas win. Both the per-call computation and
// the decoded map's table must agree with it.
func referenceMapPG(m *Map, pg uint32) ([]uint32, bool) {
	type draw struct {
		id uint32
		d  float64
	}
	var ds []draw
	for id, info := range m.OSDs {
		if info.Up && info.Weight > 0 {
			ds = append(ds, draw{id, straw(pg, id, info.Weight)})
		}
	}
	if len(ds) < m.Replicas {
		return nil, false
	}
	sort.Slice(ds, func(i, j int) bool {
		if ds[i].d != ds[j].d {
			return ds[i].d > ds[j].d
		}
		return ds[i].id < ds[j].id
	})
	out := make([]uint32, m.Replicas)
	for i := range out {
		out[i] = ds[i].id
	}
	return out, true
}

// TestTableMatchesComputedPlacement sweeps random maps — uneven weights,
// down and zero-weight OSDs, too few OSDs for the replica count — and
// checks that the mutable map's computed path and the decoded map's table
// both give the reference placement for every PG, and one past the last.
func TestTableMatchesComputedPlacement(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	tabled, degraded := 0, 0
	for round := 0; round < 300; round++ {
		m := NewMap(uint32(1)<<rng.Intn(8), 1+rng.Intn(3))
		m.Epoch = uint32(round + 1)
		for i, n := 0, rng.Intn(12); i < n; i++ {
			info := OSDInfo{ID: uint32(rng.Intn(40)), Up: rng.Intn(4) != 0, Weight: float64(rng.Intn(5)) / 2}
			m.OSDs[info.ID] = info
		}
		dec, err := Decode(m.Encode())
		if err != nil {
			t.Fatal(err)
		}
		if dec.acting != nil {
			tabled++
		}
		for pg := uint32(0); pg <= m.PGCount; pg++ {
			want, ok := referenceMapPG(m, pg)
			for name, mm := range map[string]*Map{"computed": m, "decoded": dec} {
				got, err := mm.MapPG(pg)
				prim, perr := mm.Primary(pg)
				if !ok {
					if !errors.Is(err, ErrNoOSDs) || !errors.Is(perr, ErrNoOSDs) {
						t.Fatalf("round %d %s pg %d: err = %v / %v, want ErrNoOSDs", round, name, pg, err, perr)
					}
					continue
				}
				if err != nil || perr != nil || !reflect.DeepEqual(got, want) || prim != want[0] {
					t.Fatalf("round %d %s pg %d: got %v primary %d (err %v / %v), want %v", round, name, pg, got, prim, err, perr, want)
				}
			}
			if !ok {
				degraded++
			}
		}
	}
	if tabled == 0 || degraded == 0 {
		t.Fatalf("sweep too narrow: %d tabled maps, %d degraded placements", tabled, degraded)
	}
}

// TestCloneOfDecodedMapRecomputes: a decoded map's table is frozen with
// it, so the only way to edit one is Clone, and the clone must place from
// its own OSD set, never from the original's table.
func TestCloneOfDecodedMapRecomputes(t *testing.T) {
	dec, err := Decode(clusterMap(6, 2).Encode())
	if err != nil {
		t.Fatal(err)
	}
	if dec.acting == nil {
		t.Fatal("decoded map has no placement table")
	}
	c := dec.Clone()
	if c.acting != nil {
		t.Fatal("clone carries the original's table")
	}
	victim, err := dec.Primary(5)
	if err != nil {
		t.Fatal(err)
	}
	info := c.OSDs[victim]
	info.Up = false
	c.OSDs[victim] = info
	c.Epoch++
	for pg := uint32(0); pg < c.PGCount; pg++ {
		got, err := c.MapPG(pg)
		want, _ := referenceMapPG(c, pg)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("pg %d: edited clone maps to %v (err %v), want %v", pg, got, err, want)
		}
		if contains(got, victim) {
			t.Fatalf("pg %d: edited clone still places on down osd %d", pg, victim)
		}
	}
	// The original is untouched and still answers from its table.
	if p, _ := dec.Primary(5); p != victim {
		t.Fatal("editing the clone moved the original's placement")
	}
}

func contains(set []uint32, id uint32) bool {
	for _, v := range set {
		if v == id {
			return true
		}
	}
	return false
}

// TestDecodeAbsurdCountsBuildsNoTable: counts are attacker-sized u32s; the
// table must not be.
func TestDecodeAbsurdCountsBuildsNoTable(t *testing.T) {
	m := clusterMap(3, 2)
	m.PGCount = 1 << 31
	dec, err := Decode(m.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if dec.acting != nil {
		t.Fatalf("built a %d-entry table for an absurd PG count", len(dec.acting))
	}
	if _, err := dec.MapPG(1 << 30); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMapPG(b *testing.B) {
	m := clusterMap(3, 2)
	dec, err := Decode(m.Encode())
	if err != nil {
		b.Fatal(err)
	}
	for name, mm := range map[string]*Map{"computed": m, "decoded": dec} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := mm.Primary(uint32(i) & (mm.PGCount - 1)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
