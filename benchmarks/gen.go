package benchmarks

import (
	"math"
	"math/bits"
)

// The benchmark owns its op generator (it deliberately does not import
// rebloc/internal/bench): the op stream a seed produces is then frozen
// under benchmarks/, and a change to the program cannot move its own
// inputs. The program only ever sees the generated ops.

// BlockBytes is the I/O size of every measured op.
const BlockBytes = 4096

// rng is splitmix64: tiny, fast, and defined here so the stream does not
// depend on any library's generator.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// float64 returns a uniform value in [0,1).
func (r *rng) float64() float64 { return float64(r.next()>>11) / (1 << 53) }

// intn returns a uniform value in [0,n) by multiply-shift (bias < 2^-40
// for the block counts used here).
func (r *rng) intn(n uint64) uint64 {
	hi, _ := bits.Mul64(r.next(), n)
	return hi
}

// mixSeed derives an independent stream seed from the run seed and the
// stream's coordinates.
func mixSeed(seed int64, parts ...uint64) uint64 {
	r := rng{s: uint64(seed)}
	h := r.next()
	for _, p := range parts {
		r.s = h ^ (p+1)*0xD6E8FEB86659FD93
		h = r.next()
	}
	return h
}

// zipfParams holds the YCSB zipfian constants for one (n, theta); they are
// immutable and shared by every stream over the same image.
type zipfParams struct {
	n     uint64
	theta float64
	alpha float64
	zetan float64
	eta   float64
	half  float64 // 1 + 0.5^theta
}

func newZipfParams(n uint64, theta float64) *zipfParams {
	z := &zipfParams{n: n, theta: theta}
	for i := uint64(1); i <= n; i++ {
		z.zetan += 1 / math.Pow(float64(i), theta)
	}
	zeta2 := 1 + math.Pow(0.5, theta)
	z.half = zeta2
	z.alpha = 1 / (1 - theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta2/z.zetan)
	return z
}

// rank draws a popularity rank in [0,n): rank 0 is the hottest.
func (z *zipfParams) rank(r *rng) uint64 {
	u := r.float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < z.half {
		return 1
	}
	k := uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if k >= z.n {
		k = z.n - 1
	}
	return k
}

// Op is one generated block operation against a stream's image.
type Op struct {
	Block uint32
	Read  bool
}

// Stream generates the ops of one in-flight slot. Not safe for concurrent
// use; every slot owns one.
type Stream struct {
	r       rng
	blocks  uint64
	readPct uint64
	zipf    *zipfParams // nil: uniform
	perm    []uint32    // popularity rank -> block (zipfian only)
}

// Next returns the stream's next op.
func (s *Stream) Next() Op {
	var op Op
	// The read/write draw comes first so the address sequence of a mixed
	// stream does not depend on how an op class is later served.
	if s.readPct >= 100 {
		op.Read = true
	} else if s.readPct > 0 {
		op.Read = s.r.intn(100) < s.readPct
	}
	if s.zipf != nil {
		op.Block = s.perm[s.zipf.rank(&s.r)]
	} else {
		op.Block = uint32(s.r.intn(s.blocks))
	}
	return op
}

// rankPerm scatters popularity ranks over the image (seeded Fisher-Yates),
// so the hot set spreads across objects, PGs and OSDs the way a real hot
// set does instead of sitting in the image's first object.
func rankPerm(seed uint64, n uint64) []uint32 {
	p := make([]uint32, n)
	for i := range p {
		p[i] = uint32(i)
	}
	r := rng{s: seed}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Generator builds the per-slot streams of one workload run.
type Generator struct {
	seed    int64
	wl      *Workload
	blocks  uint64
	zipf    *zipfParams
	perms   [][]uint32 // per client image
	clients int
}

// NewGenerator prepares the streams for wl over images of the given block
// count, one image per client.
func NewGenerator(wl *Workload, seed int64, clients int, blocks uint64) *Generator {
	g := &Generator{seed: seed, wl: wl, blocks: blocks, clients: clients}
	if wl.ZipfTheta > 0 {
		g.zipf = newZipfParams(blocks, wl.ZipfTheta)
		for c := 0; c < clients; c++ {
			g.perms = append(g.perms, rankPerm(mixSeed(seed, wl.id(), uint64(c), 1<<32), blocks))
		}
	}
	return g
}

// Stream returns the op stream of (client, slot). phase separates the
// warm-up stream from the measured one so warm-up length never shifts the
// measured ops.
func (g *Generator) Stream(client, slot int, phase uint64) *Stream {
	s := &Stream{
		r:       rng{s: mixSeed(g.seed, g.wl.id(), uint64(client), uint64(slot), phase)},
		blocks:  g.blocks,
		readPct: uint64(g.wl.ReadPct),
		zipf:    g.zipf,
	}
	if g.zipf != nil {
		s.perm = g.perms[client]
	}
	return s
}

// Stream phases.
const (
	phaseWarmup  = 1
	phaseMeasure = 2
)

// digestOps is how many leading ops of each measured stream the digest
// covers.
const digestOps = 4096

// Digest fingerprints the measured op stream: FNV-1a over the first
// digestOps ops of every (client, slot) stream. The same seed must give
// the same digest on every run and every commit.
func (g *Generator) Digest() uint64 {
	h := uint64(0xcbf29ce484222325)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= 0x100000001b3
			v >>= 8
		}
	}
	for c := 0; c < g.clients; c++ {
		for s := 0; s < g.wl.Inflight; s++ {
			st := g.Stream(c, s, phaseMeasure)
			for i := 0; i < digestOps; i++ {
				op := st.Next()
				v := uint64(op.Block) << 1
				if op.Read {
					v |= 1
				}
				mix(v)
			}
		}
	}
	return h
}
