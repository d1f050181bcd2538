package messenger

import (
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"rebloc/internal/metrics"
	"rebloc/internal/wire"
)

// TestTCPQueuedFramesDeliveredAfterClose pins the graceful-close contract
// of the corked send path: frames accepted by Send before Close must
// still reach the peer (the writer drains its queue within the close
// grace window).
func TestTCPQueuedFramesDeliveredAfterClose(t *testing.T) {
	client, server, cleanup := transportPair(t, TCP{}, "127.0.0.1:0")
	defer cleanup()

	const n = 64
	for i := 0; i < n; i++ {
		if err := client.Send(&wire.ClientWrite{ReqID: uint64(i), OID: wire.ObjectID{Name: "o"}}); err != nil {
			t.Fatal(err)
		}
	}
	client.Close()
	for i := 0; i < n; i++ {
		m, err := server.Recv()
		if err != nil {
			t.Fatalf("message %d lost on close: %v", i, err)
		}
		if got := m.(*wire.ClientWrite).ReqID; got != uint64(i) {
			t.Fatalf("message %d arrived out of order as %d", i, got)
		}
	}
}

// TestTCPSendFailsAfterPeerClose: once the peer drops the connection, the
// writer poisons the conn and Send reports the error instead of silently
// queueing into the void forever.
func TestTCPSendFailsAfterPeerClose(t *testing.T) {
	client, server, cleanup := transportPair(t, TCP{}, "127.0.0.1:0")
	defer cleanup()
	server.Close()

	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if err := client.Send(&wire.ClientWrite{OID: wire.ObjectID{Name: "o"}, Data: make([]byte, 64<<10)}); err != nil {
			return // writer failure surfaced
		}
	}
	t.Fatal("Send never failed after peer close")
}

// TestTCPCorkingUnderLoad verifies the adaptive cork actually engages:
// with many concurrent senders outpacing one writer goroutine, flushes
// must carry more than one frame on average.
func TestTCPCorkingUnderLoad(t *testing.T) {
	for attempt := 0; attempt < 5; attempt++ {
		st := &Stats{}
		client, server, cleanup := transportPair(t, TCP{Stats: st}, "127.0.0.1:0")

		const senders, per = 16, 64
		done := make(chan struct{})
		go func() {
			defer close(done)
			for i := 0; i < senders*per; i++ {
				if _, err := server.Recv(); err != nil {
					return
				}
			}
		}()
		var wg sync.WaitGroup
		for s := 0; s < senders; s++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				msg := &wire.ClientWrite{OID: wire.ObjectID{Name: "o"}, Data: make([]byte, 4096)}
				for i := 0; i < per; i++ {
					if err := client.Send(msg); err != nil {
						t.Errorf("Send: %v", err)
						return
					}
				}
			}()
		}
		wg.Wait()
		<-done
		cleanup()
		if t.Failed() {
			return
		}
		if st.FramesFlushed.Load() != int64(senders*per) {
			t.Fatalf("flushed %d frames, want %d", st.FramesFlushed.Load(), senders*per)
		}
		if st.FramesPerFlush() > 1 {
			return // cork engaged
		}
		// Writer kept up with the senders this round; try again.
	}
	t.Fatal("frames per flush never exceeded 1 under 16-way send load")
}

// TestStatsRegisterExposesMetrics checks the registry wiring: send-path
// counters and frame-pool rates must render under the given prefix.
func TestStatsRegisterExposesMetrics(t *testing.T) {
	st := &Stats{}
	client, server, cleanup := transportPair(t, TCP{Stats: st}, "127.0.0.1:0")
	defer cleanup()
	if err := client.Send(&wire.Pong{Epoch: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := server.Recv(); err != nil {
		t.Fatal(err)
	}

	reg := metrics.NewRegistry()
	st.Register(reg, "msgr")
	out := reg.String()
	for _, want := range []string{"msgr.sends=1", "msgr.flushes=", "msgr.frames_flushed=", "msgr.send_queue_depth=", "msgr.pool_hit_pct="} {
		if !strings.Contains(out, want) {
			t.Fatalf("registry output missing %q:\n%s", want, out)
		}
	}
}

// benchConn builds an echoing connection over tr and returns the client
// end.
func benchConn(b *testing.B, tr Transport, addr string) Conn {
	b.Helper()
	ln, err := tr.Listen(addr)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { ln.Close() })
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		for {
			m, err := c.Recv()
			if err != nil {
				return
			}
			_ = c.Send(&wire.Reply{ReqID: m.(*wire.ClientWrite).ReqID})
		}
	}()
	client, err := tr.Dial(ln.Addr())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { client.Close() })
	return client
}

// benchEchoQD drives a pipelined 4 KiB echo at the given queue depth:
// up to qd requests stay in flight, the shape of the paper's fio
// iodepth runs.
func benchEchoQD(b *testing.B, client Conn, qd int) {
	msg := &wire.ClientWrite{OID: wire.ObjectID{Name: "o"}, Data: make([]byte, 4096)}
	b.ReportAllocs()
	b.ResetTimer()
	sent, recvd := 0, 0
	for recvd < b.N {
		for sent < b.N && sent-recvd < qd {
			msg.ReqID = uint64(sent)
			if err := client.Send(msg); err != nil {
				b.Fatal(err)
			}
			sent++
		}
		if _, err := client.Recv(); err != nil {
			b.Fatal(err)
		}
		recvd++
	}
}

func BenchmarkTCPEcho4K(b *testing.B) {
	for _, qd := range []int{1, 16, 64} {
		b.Run("qd"+strconv.Itoa(qd), func(b *testing.B) {
			st := &Stats{}
			client := benchConn(b, TCP{Stats: st}, "127.0.0.1:0")
			benchEchoQD(b, client, qd)
			b.ReportMetric(st.FramesPerFlush(), "frames/flush")
		})
	}
}

func BenchmarkInProcEcho4K(b *testing.B) {
	n := NewInProc()
	for _, qd := range []int{1, 16, 64} {
		b.Run("qd"+strconv.Itoa(qd), func(b *testing.B) {
			client := benchConn(b, n, "bench-qd"+strconv.Itoa(qd))
			benchEchoQD(b, client, qd)
		})
	}
}

// BenchmarkTCPSendPath4K isolates the client send path (encode, pool,
// queue, cork, write): the peer is a raw socket discarding bytes, so no
// decode cost pollutes the allocs/op number. The steady-state target is
// ~0 allocs per send.
func BenchmarkTCPSendPath4K(b *testing.B) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go io.Copy(io.Discard, nc)
		}
	}()
	client, err := TCP{Stats: &Stats{}}.Dial(ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()

	msg := &wire.ClientWrite{OID: wire.ObjectID{Name: "o"}, Data: make([]byte, 4096)}
	// Warm the frame pool and the per-conn size hint.
	for i := 0; i < 256; i++ {
		if err := client.Send(msg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		msg.ReqID = uint64(i)
		if err := client.Send(msg); err != nil {
			b.Fatal(err)
		}
	}
}

// TestBigFrameDoesNotInflateTheNextOne: a connection sizes each pooled
// frame from the last frame it sent. One frame above wire.MaxPooledFrame (a
// backfill chunk, a whole-object repair push) used to make the following
// ordinary frame allocate a buffer just as large; the hint is clamped to
// the largest pooled class now, so no Send here may take the pool's jumbo
// branch.
func TestBigFrameDoesNotInflateTheNextOne(t *testing.T) {
	for name, tr := range map[string]Transport{"inproc": NewInProc(), "tcp": TCP{}} {
		t.Run(name, func(t *testing.T) {
			addr := "big.frame"
			if name == "tcp" {
				addr = "127.0.0.1:0"
			}
			client, server, cleanup := transportPair(t, tr, addr)
			defer cleanup()
			recvd := make(chan int, 8)
			go func() {
				for {
					m, err := server.Recv()
					if err != nil {
						return
					}
					recvd <- len(m.(*wire.ClientWrite).Data)
				}
			}()
			before := wire.FramePoolStats().Jumbos
			for _, n := range []int{4096, 1 << 20, 4096, 4096} {
				if err := client.Send(&wire.ClientWrite{OID: wire.ObjectID{Name: "o"}, Data: make([]byte, n)}); err != nil {
					t.Fatal(err)
				}
				if got := <-recvd; got != n {
					t.Fatalf("received %d bytes, sent %d", got, n)
				}
			}
			if got := wire.FramePoolStats().Jumbos - before; got != 0 {
				t.Fatalf("%d jumbo frame allocations around one 1 MiB frame, want 0", got)
			}
		})
	}
}
